"""The measure table that classify and sweep both read: every row gives the same
bits on a stack as on each of its matrices alone, classify reports exactly the
rows that apply to a state's split, Tr rho^2 is computed once per state or stack
however many rows read it, and the stacked entropy stays within a few ulp of
the filtered sum it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab import DensityMatrix, cli, measures, states, vn_entropy
from factorlab.linalg import DEFAULT_TOL, ZERO_FLOOR

from conftest import ginibre_density, random_density

EVERY_SPLIT = {"purity", "mixedness", "entropy", "ppt", "split_bound"}
QUBIT_ONLY = {"concurrence", "bmax", "abs_separable_spectrum"}


def isotropic(d, beta):
    """beta P + (1 - beta) (1 - P) / (d^2 - 1), P the projector onto sum_k |kk>/sqrt(d):
    its top eigenvector is maximally entangled once beta > 1/d^2."""
    v = np.eye(d).reshape(-1) / np.sqrt(d)
    p = np.outer(v, v)
    return beta * p + (1.0 - beta) * (np.eye(d * d) - p) / (d * d - 1)


@given(seed=st.integers(0, 2**32 - 1), split=st.sampled_from([(2, 2), (3, 3), (4, 4), (2, 3)]),
       beta=st.floats(0.5, 1.0))
@settings(max_examples=60, deadline=None)
def test_row_of_a_stack_is_the_row_of_each_matrix(seed, split, beta):
    rng = np.random.default_rng(seed)
    dim = split[0] * split[1]
    stack = [ginibre_density(rng, dim, rank) for rank in (1, 2, dim - 1, dim)]
    if split[0] == split[1]:
        stack += [isotropic(split[0], beta), isotropic(split[0], 1.0)]
    stack = np.array(stack)
    spectrum = states.validate_stack(stack, DEFAULT_TOL)
    rows = cli._Rows(stack, spectrum, split, DEFAULT_TOL)
    for key in (key for key, (applies, _) in cli._MEASURES.items() if applies(split)):
        batch = np.asarray(rows[key])
        assert batch.shape == (len(stack),), key
        for n, m in enumerate(stack):
            rho = DensityMatrix(m, split)
            one = np.asarray(cli._Rows(rho.matrix, rho.spectrum, split, DEFAULT_TOL)[key])
            assert one.shape == () and one.dtype == batch.dtype, key
            assert one.tobytes() == batch[n].tobytes(), (key, n)
    if split[0] == split[1]:
        assert not np.isnan(rows["split_bound"][-2:]).any()


@pytest.mark.parametrize("split,rows", [
    ((2, 2), EVERY_SPLIT | QUBIT_ONLY | {"kz_ball_member"}),
    ((2, 3), EVERY_SPLIT),
    ((3, 3), EVERY_SPLIT | {"kz_ball_member"}),
    ((1, 1), EVERY_SPLIT | {"kz_ball_member"}),
    ((1, 4), EVERY_SPLIT),
])
def test_report_keys_are_the_rows_that_apply(rng, split, rows):
    report = cli.classification_report(random_density(rng, split))
    assert set(report) == {"split"} | rows
    assert rows == {key for key, (applies, _) in cli._MEASURES.items() if applies(split)}
    assert list(report) == ["split"] + [key for key in cli._MEASURES if key in rows]


@pytest.fixture
def purity_calls(monkeypatch):
    """The stack size of each ``measures.purities`` call made from here on."""
    calls, purities = [], measures.purities
    monkeypatch.setattr(measures, "purities", lambda m: calls.append(m[..., 0, 0].size) or purities(m))
    return calls


@pytest.mark.parametrize("split", [(2, 2), (3, 3), (2, 3), (8, 8)])
def test_classify_computes_purity_once(rng, purity_calls, split):
    report = cli.classification_report(random_density(rng, split))
    assert {"purity", "mixedness"} <= set(report)
    assert purity_calls == [1]


@pytest.mark.parametrize("family,theta,outputs,stacks", [
    ("werner", None, ["purity", "kz_member"], 1),
    ("werner", None, ["kz_member", "C", "purity"], 1),
    ("ghz_traced", None, ["mixedness", "C_best"], 1),
    ("gisin_compare", 0.35, ["purity_gisin", "purity_filtered", "purity_unitary"], 3),
])
def test_sweep_computes_purity_once_per_stack(purity_calls, family, theta, outputs, stacks):
    """One call per sweep, on every stack a purity column reads."""
    cli.run_sweep(cli.SweepSpec(family, 0.0, 1.0, 11, outputs, theta))
    assert purity_calls == [11 * stacks]


@given(seed=st.integers(0, 2**32 - 1),
       split=st.sampled_from([(2, 4), (3, 3), (2, 5), (4, 4), (8, 8)]), data=st.data())
@settings(max_examples=100, deadline=None)
def test_entropy_matches_the_filtered_sum(seed, split, data):
    dim = split[0] * split[1]
    rank = data.draw(st.integers(2, dim - 1))
    rho = DensityMatrix(ginibre_density(np.random.default_rng(seed), dim, rank), split)
    p = rho.spectrum.values
    p = p[p > dim * ZERO_FLOOR]
    filtered = float(np.sum(-p * np.log(p)))
    assert abs(vn_entropy(rho) - filtered) <= 4 * np.spacing(filtered)
