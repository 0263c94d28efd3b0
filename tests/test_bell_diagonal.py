"""Bell-diagonal two-qubit states as an oracle for the concurrence and the PPT test.

rho = sum_i lambda_i |chi_i><chi_i| over the four Weyl (Bell) basis states
fills a tetrahedron; its separable part is the octahedron lambda_max <= 1/2
(Bertlmann, Narnhofer and Thirring, PRA 66, 032319 (2002)).  There
C = max(0, 2 lambda_max - 1) (Wootters, PRL 80, 2245 (1998)) and the partial
transpose has eigenvalues 1/2 - lambda_i, so its smallest is 1/2 - lambda_max.
Both hold on every local-unitary image U_A (x) U_B rho (U_A (x) U_B)^dagger.
The weights reach down to 1e-12 and to exact zeros, where the Wootters
lambda_i (the weights themselves) sit far below any rounding floor, and
lambda_max is drawn next to 1/2, where the verdict flips.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab import DensityMatrix, concurrence, ppt_check
from factorlab.cli import classification_report
from factorlab.states import rho_theta, weyl_basis_state, weyl_indices
from conftest import haar_unitary

EPS = np.finfo(float).eps
CHI = weyl_basis_state(*weyl_indices(2), 2)  # row i: the Bell vector chi_i

tiny = st.one_of(st.just(0.0), st.floats(1e-12, 1e-7))


@st.composite
def bell_diagonal(draw):
    """(rho, lambda_max): a first weight anywhere in [0.25, 1] or within 1e-7 of
    1/2, two more each tiny (exact zero or 1e-12 to 1e-7) or a share of the mass
    left, the last what remains, in random order, and maybe a random local
    unitary on rho."""
    lam = [draw(st.one_of(st.floats(0.25, 1.0), st.floats(-1e-7, 1e-7).map(lambda x: 0.5 + x)))]
    for _ in range(2):
        left = max(1.0 - sum(lam), 0.0)
        lam.append(min(draw(tiny | st.floats(0.0, 1.0).map(lambda f: f * left)), left))
    lam.append(max(1.0 - sum(lam), 0.0))
    lam = np.array(lam)[draw(st.permutations(range(4)))]
    m = (CHI.T * lam) @ CHI.conj()
    seed = draw(st.none() | st.integers(0, 2**32 - 1))
    if seed is not None:
        rng = np.random.default_rng(seed)
        local = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
        m = local @ m @ local.conj().T
    return DensityMatrix(m, (2, 2)), lam.max()


@settings(max_examples=300, deadline=None)
@given(bell_diagonal())
def test_concurrence_is_the_excess_of_the_top_weight(state):
    rho, top = state
    assert abs(concurrence(rho) - max(0.0, 2.0 * top - 1.0)) <= 32 * EPS


@settings(max_examples=300, deadline=None)
@given(bell_diagonal())
def test_ppt_exactly_inside_the_octahedron(state):
    # min PT eigenvalue 1/2 - lambda_max; outside a band of a few eps around the
    # octahedron's face, PPT at tol 0 exactly when lambda_max <= 1/2, and then C = 0
    rho, top = state
    verdict = ppt_check(rho, tol=0.0)
    assert abs(verdict.min_pt_eigenvalue - (0.5 - top)) <= 32 * EPS
    if abs(top - 0.5) > 32 * EPS:
        assert (verdict.classification == "PPT") == (top <= 0.5) == (concurrence(rho) == 0.0)


def test_classify_rho_theta_near_pi_over_2():
    # C = sin(2 theta) = 5.36e-8, next to an NPT verdict
    theta = 1.5707963
    report = classification_report(rho_theta(theta))
    assert report["ppt"]["classification"] == "NPT"
    assert abs(report["concurrence"] - math.sin(2.0 * theta)) <= EPS * math.sin(2.0 * theta)
