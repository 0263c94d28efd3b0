"""Bell-diagonal two-qubit states as an oracle for the concurrence and the PPT test.

rho = sum_i lambda_i |chi_i><chi_i| over the four Weyl (Bell) basis states
fills a tetrahedron; its separable part is the octahedron lambda_max <= 1/2
(Bertlmann, Narnhofer and Thirring, PRA 66, 032319 (2002)).  There
C = max(0, 2 lambda_max - 1) (Wootters, PRL 80, 2245 (1998)) and the partial
transpose has eigenvalues 1/2 - lambda_i, so its smallest is 1/2 - lambda_max.
The correlation matrix is diagonal, t_i = sum_j lambda_j <chi_j|s_i (x) s_i|chi_j>,
so the maximal CHSH value is sqrt(t1^2 + t2^2) over the two largest |t_i|
(Horodecki, PLA 200, 340 (1995)).  All three hold on every local-unitary image
U_A (x) U_B rho (U_A (x) U_B)^dagger.  In the d = 3 magic simplex
(Baumgartner, Hiesmayr and Narnhofer, PRA 74, 032327 (2006)) the split bound's
entangled verdict is sound: it implies NPT.
The weights reach down to 1e-12 and to exact zeros, where the Wootters
lambda_i (the weights themselves) sit far below any rounding floor, and
lambda_max is drawn next to 1/2, where the verdict flips.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab import (
    DensityMatrix, concurrence, horodecki_bmax, maxent_weight, ppt_check, split_bound_check,
)
from factorlab.cli import classification_report
from factorlab.states import PAULI, rho_theta, weyl_basis_state, weyl_indices
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
    return DensityMatrix(m, (2, 2)), lam


@settings(max_examples=300, deadline=None)
@given(bell_diagonal())
def test_concurrence_is_the_excess_of_the_top_weight(state):
    rho, lam = state
    top = lam.max()
    assert abs(concurrence(rho) - max(0.0, 2.0 * top - 1.0)) <= 32 * EPS


@settings(max_examples=300, deadline=None)
@given(bell_diagonal())
def test_ppt_exactly_inside_the_octahedron(state):
    # min PT eigenvalue 1/2 - lambda_max; outside a band of a few eps around the
    # octahedron's face, PPT at tol 0 exactly when lambda_max <= 1/2, and then C = 0
    rho, lam = state
    top = lam.max()
    verdict = ppt_check(rho, tol=0.0)
    assert abs(verdict.min_pt_eigenvalue - (0.5 - top)) <= 32 * EPS
    if abs(top - 0.5) > 32 * EPS:
        assert (verdict.classification == "PPT") == (top <= 0.5) == (concurrence(rho) == 0.0)


# CORRELATION[i, j] = <chi_j|s_i (x) s_i|chi_j>, from dense Pauli products
CORRELATION = np.array([[np.vdot(chi, np.kron(s, s) @ chi).real for chi in CHI] for s in PAULI])


@settings(max_examples=300, deadline=None)
@given(bell_diagonal())
def test_bmax_is_the_norm_of_the_two_largest_correlations(state):
    rho, lam = state
    t1, t2 = np.sort(np.abs(CORRELATION @ lam))[::-1][:2]
    assert abs(horodecki_bmax(rho) - math.sqrt(t1 * t1 + t2 * t2)) <= 32 * EPS


def test_qutrit_split_bound_implies_npt():
    # 3000 Dirichlet(0.5) points of the d = 3 magic simplex: no state with an
    # entangled split bound (beta > 1/3) is PPT
    rng = np.random.default_rng(3)
    chi = weyl_basis_state(*weyl_indices(3), 3)
    flagged = 0
    for lam in rng.dirichlet(np.full(9, 0.5), size=3000):
        rho = DensityMatrix((chi.T * lam) @ chi.conj(), (3, 3))
        beta = maxent_weight(rho)
        if beta is not None and split_bound_check(beta, 3):
            flagged += 1
            assert ppt_check(rho).classification == "NPT"
    assert flagged > 1500


def test_classify_rho_theta_near_pi_over_2():
    # C = sin(2 theta) = 5.36e-8, next to an NPT verdict
    theta = 1.5707963
    report = classification_report(rho_theta(theta))
    assert report["ppt"]["classification"] == "NPT"
    assert abs(report["concurrence"] - math.sin(2.0 * theta)) <= EPS * math.sin(2.0 * theta)
