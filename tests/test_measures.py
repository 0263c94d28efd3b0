import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from factorlab import (
    DensityMatrix,
    abs_sep_2x2,
    bell_state,
    concurrence,
    conjugate,
    ghz_traced,
    gisin,
    hs_distance,
    hs_measure_to,
    kz_ball_member,
    maxent_weight,
    mixedness,
    narnhofer,
    ppt_check,
    product_state,
    purity,
    rho_theta,
    split_bound_check,
    tracial,
    u2_ghz,
    u_switch,
    vn_entropy,
    werner,
    weyl_basis_state,
)
from factorlab.linalg import DEFAULT_TOL
from factorlab.measures import abs_separables, kz_ball_members, purities
from factorlab.transforms import FactorizationSwitch
from conftest import (
    ginibre_density,
    haar_unitary,
    haar_vector,
    pure_concurrence,
    random_density,
    xstate_concurrence,
)

# How far a concurrence may sit from its closed form: a few hundred roundings
# of one 4x4 eigensolve and one 4x4 singular-value solve.
C_TOL = 64 * np.finfo(float).eps


class TestPurityMixedness:
    def test_reference_values(self):
        assert purity(tracial(4)) == pytest.approx(0.25, abs=1e-14)
        assert purity(bell_state("phi-")) == pytest.approx(1.0, abs=1e-14)
        assert purity(narnhofer()) == pytest.approx(0.5, abs=1e-14)

    def test_mixedness(self):
        assert mixedness(bell_state("psi+")) == pytest.approx(0.0, abs=1e-14)
        assert mixedness(ghz_traced(np.pi / 4)) == pytest.approx(0.5, abs=1e-14)
        assert mixedness(tracial(4)) == pytest.approx(0.75, abs=1e-14)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_purity_bounds(self, seed):
        rho = random_density(np.random.default_rng(seed), (2, 2))
        assert 0.25 - 1e-12 <= purity(rho) <= 1.0 + 1e-12


class TestEntropy:
    def test_pure_state(self):
        assert vn_entropy(rho_theta(0.9)) == pytest.approx(0.0, abs=1e-12)

    def test_single_qubit_maximally_mixed(self):
        half = DensityMatrix(np.eye(2, dtype=complex) / 2, (1, 2))
        assert vn_entropy(half) == pytest.approx(np.log(2), abs=1e-13)

    @pytest.mark.parametrize("theta", np.linspace(0.1, np.pi / 2 - 0.1, 7))
    def test_ghz_reduction_binary_entropy(self, theta):
        s2, c2 = np.sin(theta) ** 2, np.cos(theta) ** 2
        expected = -s2 * np.log(s2) - c2 * np.log(c2)
        red = DensityMatrix(np.diag([s2, c2]).astype(complex), (1, 2))
        assert vn_entropy(red) == pytest.approx(expected, abs=1e-12)


# (d1, d2) with d1 * d2 <= 64, the dimensions the CLI accepts.
splits = st.integers(1, 64).flatmap(
    lambda dim: st.sampled_from([(a, dim // a) for a in range(1, dim + 1) if dim % a == 0]))
seeds = st.integers(0, 2**32 - 1)


class TestEntropyProperties:
    @given(split=splits, seed=seeds)
    @settings(max_examples=200, deadline=None)
    def test_pure_state_is_exactly_positive_zero(self, split, seed):
        v = haar_vector(np.random.default_rng(seed), split[0] * split[1])
        entropy = vn_entropy(DensityMatrix(np.outer(v, v.conj()), split))
        assert entropy == 0.0 and math.copysign(1.0, entropy) == 1.0

    @given(dim=st.integers(1, 64))
    @settings(max_examples=64, deadline=None)
    def test_tracial_is_log_dimension(self, dim):
        entropy = vn_entropy(tracial(dim, split=(1, dim)))
        assert abs(entropy - math.log(dim)) <= 1e-12 and math.copysign(1.0, entropy) == 1.0

    @given(split=splits, seed=seeds, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_mixed_state_matches_independent_eigenvalues(self, split, seed, data):
        dim = split[0] * split[1]
        assume(dim > 1)
        rank = data.draw(st.integers(2, dim))
        m = ginibre_density(np.random.default_rng(seed), dim, rank)
        p = np.linalg.eigvalsh(m)
        p = p[p > 0]
        assert abs(vn_entropy(DensityMatrix(m, split)) + np.sum(p * np.log(p))) <= 1e-12


class TestPpt:
    def test_singlet_npt(self):
        verdict = ppt_check(bell_state("psi-"))
        assert verdict.classification == "NPT"
        assert verdict.min_pt_eigenvalue == pytest.approx(-0.5, abs=1e-12)
        assert verdict.entangled

    def test_werner_threshold(self):
        assert ppt_check(werner(0.3)).classification == "PPT"
        assert ppt_check(werner(0.4)).classification == "NPT"

    def test_diagonal_states_ppt(self, rng):
        for _ in range(10):
            p = rng.dirichlet(np.ones(4))
            rho = DensityMatrix(np.diag(p).astype(complex), (2, 2))
            assert ppt_check(rho).classification == "PPT"


class TestConcurrence:
    def test_bell_images_stay_at_most_one(self, rng):
        # about one in six local-unitary images of a Bell state has l1 - l2 - l3 - l4
        # a few eps above 1 before the clamp
        for kind in ("psi+", "psi-", "phi+", "phi-"):
            bell = bell_state(kind).matrix
            for _ in range(750):
                u = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
                c = concurrence(DensityMatrix(u @ bell @ u.conj().T, (2, 2)))
                assert 1.0 - C_TOL <= c <= 1.0

    def test_rho_theta_grid(self):
        for theta in np.linspace(0.0, np.pi / 2, 25):
            assert concurrence(rho_theta(theta)) == pytest.approx(
                abs(np.sin(2 * theta)), abs=C_TOL
            )

    def test_switched_rho_theta_grid(self):
        u = u_switch()
        for theta in np.linspace(0.0, np.pi / 2, 25):
            expected = abs(np.cos(2 * theta))
            assert concurrence(conjugate(rho_theta(theta), u)) == pytest.approx(
                expected, abs=C_TOL
            )

    def test_gisin_closed_form(self):
        # X-state oracle: for the Gisin family the inner branch gives
        # C = max(0, lam sin(2 theta) - (1 - lam)).
        for lam in (0.2, 0.5, 0.8, 0.95):
            for theta in (0.2, 0.35, 0.7):
                rho = gisin(lam, theta)
                expected = max(0.0, lam * np.sin(2 * theta) - (1 - lam))
                assert concurrence(rho) == pytest.approx(expected, abs=1e-10)
                assert concurrence(rho) == pytest.approx(
                    xstate_concurrence(rho.matrix), abs=1e-10
                )

    def test_pure_state_oracle(self, rng):
        for _ in range(200):
            v = haar_vector(rng, 4)
            rho = DensityMatrix(np.outer(v, v.conj()), (2, 2))
            assert concurrence(rho) == pytest.approx(pure_concurrence(v), abs=C_TOL)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_local_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, (2, 2))
        local = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
        switched = conjugate(rho, FactorizationSwitch(local, (2, 2), "local"))
        assert concurrence(switched) == pytest.approx(concurrence(rho), abs=C_TOL)

    def test_ppt_equivalence_two_qubits(self, rng):
        # Peres-Horodecki at 2x2: NPT iff positive concurrence.
        for _ in range(200):
            rho = random_density(rng, (2, 2), rank=int(rng.integers(1, 5)))
            assert (ppt_check(rho).classification == "NPT") == (concurrence(rho) > 0.0)

    def test_requires_two_qubit_split(self, rng):
        with pytest.raises(Exception):
            concurrence(random_density(rng, (2, 3)))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_ppt_exactly_when_concurrence_is_zero(self, seed):
        # Peres-Horodecki at 2x2, away from the PPT boundary: C is exactly 0
        # on PPT states and positive on NPT states.
        rng = np.random.default_rng(seed)
        rho = random_density(rng, (2, 2), rank=int(rng.integers(1, 5)))
        verdict = ppt_check(rho)
        assume(abs(verdict.min_pt_eigenvalue) >= 1e-12)
        assert (verdict.classification == "PPT") == (concurrence(rho) == 0.0)


class TestHsGeometry:
    def test_distance_to_self(self):
        rho = werner(0.4)
        assert hs_distance(rho, rho) == 0.0

    def test_werner_distance_to_tracial(self):
        # || alpha (psi- proj - 1/4) || = alpha sqrt(3)/2
        for alpha in (0.0, 0.3, 1.0):
            assert hs_distance(werner(alpha), tracial(4)) == pytest.approx(
                alpha * np.sqrt(3) / 2, abs=1e-12
            )

    def test_measure_at_nearest_separable_state(self):
        assert hs_measure_to(bell_state("psi-"), werner(1 / 3)) == pytest.approx(
            1 / np.sqrt(3), abs=1e-12
        )


class TestKzBall:
    def test_one_dimensional_state_is_the_centre(self):
        # the bound 1/(D - 1) diverges at D = 1, whose only state is 1/D
        assert kz_ball_member(tracial(1))
        m = np.ones((3, 1, 1))
        assert kz_ball_members(m, DEFAULT_TOL, purities(m)).tolist() == [True] * 3

    def test_purity_on_the_bound_is_a_member(self):
        # Tr rho^2 = 1/(D - 1) exactly, at tol 0: the bound is inclusive
        assert kz_ball_members(np.eye(4) / 4, 0.0, np.array(1 / 3))

    def test_reference_memberships(self):
        assert kz_ball_member(tracial(4))
        assert kz_ball_member(werner(1 / 3))  # boundary
        assert not kz_ball_member(werner(0.34))
        assert not kz_ball_member(narnhofer())

    def test_purity_and_distance_forms_agree(self, rng):
        # Tr rho^2 <= 1/(D-1) and ||rho - 1/D|| <= sqrt(1/(D-1) - 1/D) are the
        # same statement because ||rho - 1/D||^2 = Tr rho^2 - 1/D.
        for _ in range(20):
            rho = random_density(rng, (2, 2))
            gap = hs_distance(rho, tracial(4)) ** 2
            assert gap == pytest.approx(purity(rho) - 0.25, abs=1e-12)
            member_purity = purity(rho) <= 1 / 3
            member_distance = hs_distance(rho, tracial(4)) <= np.sqrt(1 / 3 - 0.25)
            assert member_purity == member_distance

    def test_member_stays_ppt_under_global_unitaries(self, rng):
        base = random_density(rng, (2, 2))
        # contract toward the tracial state far enough to guarantee membership
        m = 0.3 * base.matrix + 0.7 * np.eye(4) / 4
        rho = DensityMatrix(m, (2, 2))
        assert kz_ball_member(rho)
        for _ in range(50):
            u = haar_unitary(rng, 4)
            rotated = DensityMatrix(u @ rho.matrix @ u.conj().T, (2, 2))
            assert ppt_check(rotated).classification == "PPT"


class TestAbsSep:
    def test_reference_spectra(self):
        assert abs_sep_2x2([0.47, 0.30, 0.13, 0.10])
        assert not abs_sep_2x2([1.0, 0.0, 0.0, 0.0])
        assert abs_sep_2x2([0.25, 0.25, 0.25, 0.25])

    def test_malformed(self):
        with pytest.raises(ValueError):
            abs_sep_2x2([0.5, 0.5, 0.1, -0.1])
        with pytest.raises(ValueError):
            abs_sep_2x2([0.1, 0.2, 0.3, 0.4])
        with pytest.raises(ValueError):
            abs_sep_2x2([0.5, 0.3, 0.2])
        with pytest.raises(ValueError, match="must sum to 1, got 1.25"):
            abs_sep_2x2([0.5, 0.25, 0.25, 0.25])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(
        lambda row: sum(row) > 0), min_size=1, max_size=8))
    @pytest.mark.parametrize("tol", [0.0, DEFAULT_TOL])
    def test_stacked_test_is_the_test_of_each_spectrum(self, tol, rows):
        # werner(1/3) sits on the boundary: p1 - p3 - 2 sqrt(p2 p4) is 0 up to rounding
        stack = np.vstack([-np.sort(-np.array(rows), axis=1), werner(1 / 3).spectrum.values])
        stack /= stack.sum(axis=1, keepdims=True)
        assert abs_separables(stack, tol).tolist() == [abs_sep_2x2(q, tol) for q in stack]

    def test_left_side_equal_to_tol_passes(self):
        # p1 - p3 - 2 sqrt(p2 p4) <= tol is inclusive: tol set to the left side itself
        p = np.array([1 / 2, 1 / 6, 1 / 6, 1 / 6])
        lhs = p[0] - p[2] - 2.0 * math.sqrt(p[1] * p[3])
        assert abs_separables(p, lhs)

    def test_positive_verdict_implies_ppt_under_unitaries(self, rng):
        spectrum = np.array([0.47, 0.30, 0.13, 0.10])
        assert abs_sep_2x2(spectrum)
        for _ in range(50):
            u = haar_unitary(rng, 4)
            rho = DensityMatrix(u @ np.diag(spectrum) @ u.conj().T, (2, 2))
            assert ppt_check(rho).classification == "PPT"


class TestSplitBound:
    def test_boundary_not_flagged(self):
        assert not split_bound_check(0.5, 2)

    def test_maximal(self):
        assert split_bound_check(1.0, 2)
        assert split_bound_check(1.0, 5)

    def test_werner_mapping(self):
        # beta = alpha + (1 - alpha)/4 crosses 1/2 exactly at alpha = 1/3
        for alpha in (0.2, 1 / 3, 0.4):
            beta = alpha + (1 - alpha) / 4
            assert split_bound_check(beta, 2) == (alpha > 1 / 3 + 1e-15)


class TestMaxentWeight:
    def test_werner_weight_is_top_eigenvalue(self):
        alpha = 0.6
        beta = maxent_weight(werner(alpha))
        assert beta == pytest.approx((1 + 3 * alpha) / 4, abs=1e-10)

    def test_product_dominated_state_gives_none(self):
        m = 0.9 * product_state(0, 1).matrix + 0.1 * np.eye(4) / 4
        assert maxent_weight(DensityMatrix(m, (2, 2))) is None

    @staticmethod
    def assert_local_unitary_invariant(rho, rng, images=10):
        """split_bound (None, or beta and its verdict) is the same on rho and on
        (U_A (x) U_B) rho (U_A (x) U_B)^dagger for random U_A, U_B."""
        d = rho.split[0]
        want = maxent_weight(rho)
        for _ in range(images):
            u = np.kron(haar_unitary(rng, d), haar_unitary(rng, d))
            got = maxent_weight(DensityMatrix(u @ rho.matrix @ u.conj().T, rho.split))
            assert (got is None) == (want is None), (want, got)
            if want is not None:
                assert got == pytest.approx(want, abs=8 * np.finfo(float).eps)
                assert split_bound_check(got, d) == split_bound_check(want, d)

    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]),
           kind=st.sampled_from(["ginibre", "weyl-diagonal", "tied-top"]))
    @settings(max_examples=60, deadline=None)
    def test_split_bound_is_local_unitary_invariant(self, seed, d, kind):
        rng = np.random.default_rng(seed)
        if kind == "ginibre":
            rho = random_density(rng, (d, d))
        else:
            # diagonal in a locally rotated Weyl basis, every eigenvector maximally entangled
            p = rng.dirichlet(np.ones(d * d))
            if kind == "tied-top":
                p[:2] = p.max()
                p /= p.sum()
            u = np.kron(haar_unitary(rng, d), haar_unitary(rng, d))
            w = u @ np.array([weyl_basis_state(k, l, d) for k in range(d) for l in range(d)]).T
            rho = DensityMatrix((w * p) @ w.conj().T, (d, d))
            assert (maxent_weight(rho) is None) == (kind == "tied-top")
        self.assert_local_unitary_invariant(rho, rng)

    def test_degenerate_tops_give_none_in_every_basis(self, rng):
        # in a degenerate top eigenspace the eigensolver picks the vector: narnhofer's
        # (0.5 at 2x2 in the standard basis), u2-ghz on ghz-traced at pi/4 (a lead
        # of 3e-12), and the qutrit 0.4 P_00 + 0.4 P_12 + 0.2 P_21 (0.4 > 1/3)
        p = lambda k, l: np.outer(weyl_basis_state(k, l, 3), weyl_basis_state(k, l, 3).conj())
        qutrit = DensityMatrix(0.4 * p(0, 0) + 0.4 * p(1, 2) + 0.2 * p(2, 1), (3, 3))
        for rho in (narnhofer(), conjugate(ghz_traced(0.7853981634), u2_ghz()), qutrit):
            assert maxent_weight(rho) is None
            self.assert_local_unitary_invariant(rho, rng, images=20)
