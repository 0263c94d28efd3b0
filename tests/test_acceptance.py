"""Acceptance gate: one test per numbered criterion, each at its stated
tolerance, printing a PASS line on success (run with ``pytest -v -s``).

Criterion 9a checks the concurrences of the Gisin state, its locally filtered
image and its unitarily switched image.  Their closed forms are
p = max(0, lam sin 2t - (1 - lam)), f = p / (lam sin 2t + 1 - lam) and
u = 2 lam - 1; eliminating lam and t leaves the parameter-free relation
f = p / (p + 1 - u).  The quoted anchor triple 0.40 / 0.62 / 0.75 obeys that
relation: u = 0.75 and p = 0.40 fix lam = 7/8 and sin 2t = 3/5, i.e.
t = arctan(1/3), and the relation then predicts f = 8/13 = 0.6154.  The triple
therefore belongs to (7/8, arctan 1/3), not to the CLI example point
(0.8, 0.35), where the closed forms give 0.3154 / 0.4409 / 0.6000.  The point
is inferred from the closed forms; PAPER.md holds only the abstract and does
not settle where the triple was quoted from.  The test pins the closed forms
at (0.8, 0.35) and asserts the quoted triple at its own point.
"""

import numpy as np

import factorlab as fl
from conftest import haar_unitary, haar_vector, random_density, xstate_concurrence

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)


def _pass(n, message):
    print(f"criterion {n:>3} PASS - {message}")


def _phase_residual(u, v):
    u, v = np.asarray(u).reshape(-1), np.asarray(v).reshape(-1)
    idx = int(np.argmax(np.abs(v)))
    phase = u[idx] / v[idx]
    phase /= abs(phase)
    return float(np.max(np.abs(u - phase * v)))


def _bisect(f, lo, hi, tol=1e-9):
    flo = f(lo)
    for _ in range(200):
        mid = (lo + hi) / 2
        if f(mid) * flo > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return (lo + hi) / 2


def test_criterion_01_optimal_witness_expectations():
    witness = fl.optimal_witness(fl.werner(1 / 3), fl.bell_state("psi-"))
    value_ent = fl.hs_inner(fl.bell_state("psi-").matrix, witness.operator)
    value_sep = fl.hs_inner(fl.werner(1 / 3).matrix, witness.operator)
    assert abs(value_ent - (-1 / SQRT3)) <= 1e-12
    assert abs(value_sep) <= 1e-12
    _pass(1, "witness expectations -1/sqrt(3) on the singlet and 0 on the tangent state")


def test_criterion_02_switch_distance():
    singlet = fl.bell_state("psi-")
    moved = fl.conjugate(singlet, fl.u_switch())
    distance = fl.hs_norm(moved.matrix - singlet.matrix)
    assert abs(distance - 1.0) <= 1e-12
    _pass(2, "distance between the singlet and its switched image is 1")


def test_criterion_03_concurrence_switch_curves():
    # theta grid over [0, pi/4], where cos(2 theta) >= 0 equals the concurrence
    thetas = np.linspace(0.0, np.pi / 4, 101)
    switch = fl.u_switch()
    err_plain = max(
        abs(fl.concurrence(fl.rho_theta(t)) - np.sin(2 * t)) for t in thetas
    )
    err_switched = max(
        abs(fl.concurrence(fl.conjugate(fl.rho_theta(t), switch)) - np.cos(2 * t))
        for t in thetas
    )
    assert err_plain <= 1e-8
    assert err_switched <= 1e-8
    _pass(3, f"C = sin(2t) and switched C = cos(2t), max errors {err_plain:.1e}/{err_switched:.1e}")


def test_criterion_04_theta_switch_targets():
    psi_plus = fl.bell_state("psi+").matrix
    down_up = fl.product_state(1, 0).matrix
    for theta in np.linspace(0.0, np.pi / 2, 17):
        via_theta = fl.conjugate(fl.rho_theta(theta), fl.u_theta(theta)).matrix
        via_tilde = fl.conjugate(fl.rho_theta(theta), fl.u_tilde_theta(theta)).matrix
        assert np.max(np.abs(via_theta - psi_plus)) <= 1e-10
        assert np.max(np.abs(via_tilde - down_up)) <= 1e-10
    _pass(4, "angle-adapted switches reach psi+ and |10><10| exactly for all sampled theta")


def test_criterion_05_corner_state_switch():
    corner = fl.narnhofer()
    moved = fl.conjugate(corner, fl.narnhofer_unitary())
    assert abs(fl.concurrence(moved) - 0.5) <= 1e-10
    assert abs(fl.purity(corner) - 0.5) <= 1e-12
    _pass(5, "corner state: purity 1/2 and switched concurrence 1/2")


def test_criterion_06_ghz_balanced_peak():
    theta = np.pi / 4
    moved = fl.conjugate(fl.ghz_traced(theta), fl.u1_ghz())
    assert abs(fl.concurrence(moved) - 0.5) <= 1e-10
    assert abs(fl.mixedness(fl.ghz_traced(theta)) - 0.5) <= 1e-10
    _pass(6, "traced GHZ at theta = pi/4: switched concurrence 1/2, mixedness 1/2")


def test_criterion_07_werner_boundaries():
    boundary_ppt = _bisect(
        lambda a: fl.ppt_check(fl.werner(a)).min_pt_eigenvalue, 0.0, 1.0
    )
    assert abs(boundary_ppt - 1 / 3) <= 1e-6
    for alpha in np.linspace(0.0, 1.0, 51):
        assert abs(fl.horodecki_bmax(fl.werner(alpha)) - SQRT2 * alpha) <= 1e-10
    boundary_bell = _bisect(
        lambda a: fl.horodecki_bmax(fl.werner(a)) - 1.0, 0.0, 1.0
    )
    assert abs(boundary_bell - 1 / SQRT2) <= 1e-6
    _pass(7, f"werner boundaries at {boundary_ppt:.8f} (PPT) and {boundary_bell:.8f} (Bell)")


def test_criterion_08_witness_expectation_grids():
    witness = fl.optimal_witness(fl.werner(1 / 3), fl.bell_state("psi-"))
    switch = fl.u_switch()
    switched_witness = fl.Witness(
        switch.unitary @ witness.operator @ switch.unitary.conj().T, (2, 2)
    )
    for alpha in np.linspace(0.0, 1.0, 21):
        moved = fl.conjugate(fl.werner(alpha), switch)
        assert abs(fl.ewi_eval(moved, witness) - (1 - alpha) / (2 * SQRT3)) <= 1e-12
        assert abs(
            fl.ewi_eval(moved, switched_witness) - (1 - 3 * alpha) / (2 * SQRT3)
        ) <= 1e-12
    _pass(8, "witness grids (1-a)/(2 sqrt 3) and (1-3a)/(2 sqrt 3) over alpha")


def _gisin_concurrences(lam, theta):
    """Concurrences of the Gisin state, its filtered and its switched image,
    each paired with the state's matrix for the X-state oracle."""
    plain = fl.gisin(lam, theta)
    filtered = fl.apply_filter(plain, fl.gisin_filter(theta))
    switched = fl.gisin_unitary_family(lam, theta)
    return [(fl.concurrence(rho), rho.matrix) for rho in (plain, filtered, switched)]


def test_criterion_09a_gisin_concurrence_anchors():
    # closed forms at the CLI example point, pinned against formulas and oracle
    lam, theta = 0.8, 0.35
    s = np.sin(2 * theta)
    p = max(0.0, lam * s - (1 - lam))
    closed = (p, p / (lam * s + 1 - lam), 2 * lam - 1)
    for (c, m), expected in zip(_gisin_concurrences(lam, theta), closed):
        assert abs(c - expected) <= 1e-10
        assert abs(c - xstate_concurrence(m)) <= 1e-10

    # The quoted triple (p, f, u) = (0.40, 0.62, 0.75): u = 2 lam - 1 = 0.75
    # gives lam = 7/8; p = lam sin 2t - (1 - lam) = 0.40 then gives
    # sin 2t = 3/5, i.e. tan t = 1/3.  f = p / (p + 1 - u) = 8/13 is the
    # prediction checked against the third anchor.
    lam, theta = 7 / 8, np.arctan(1 / 3)
    computed = tuple(c for c, _ in _gisin_concurrences(lam, theta))
    anchors = (0.40, 0.62, 0.75)
    assert all(abs(c - a) <= 5e-3 for c, a in zip(computed, anchors)), (
        f"anchor concurrences {anchors} vs computed "
        f"({computed[0]:.4f}, {computed[1]:.4f}, {computed[2]:.4f}) at "
        "lam = 7/8, theta = arctan(1/3), the point the anchors fix through "
        "f = p/(p + 1 - u) (see module docstring)"
    )
    _pass(
        "9a",
        "gisin closed forms at (0.8, 0.35); anchors 0.40/0.62/0.75 at (7/8, arctan 1/3)",
    )


def test_criterion_09b_gisin_violation_thresholds():
    thresholds = fl.gisin_thresholds(0.35)
    assert abs(thresholds.unfiltered - 0.906) <= 5e-3
    assert abs(thresholds.filtered - 0.789) <= 5e-3
    _pass("9b", f"violation thresholds {thresholds.unfiltered:.4f}/{thresholds.filtered:.4f}")


def test_criterion_10_absolute_separability_spectrum():
    spectrum = np.array([0.47, 0.30, 0.13, 0.10])
    assert fl.abs_sep_2x2(spectrum)
    rng = np.random.default_rng(10)
    base = np.diag(spectrum).astype(complex)
    for _ in range(200):
        u = haar_unitary(rng, 4)
        rotated = fl.DensityMatrix(u @ base @ u.conj().T, (2, 2))
        assert fl.ppt_check(rotated).classification == "PPT"
    _pass(10, "spectrum {0.47,0.30,0.13,0.10} absolutely separable: 200/200 rotations PPT")


def test_criterion_11_constrained_entangling_switch():
    rng = np.random.default_rng(11)
    for d in (2, 3):
        dim = d * d
        bound = 3.0 / dim
        produced_npt = 0
        for _ in range(1000):
            while True:
                spectrum = np.sort(rng.dirichlet(np.ones(dim)))[::-1]
                if spectrum[0] > bound + 1e-9:
                    break
            rho = fl.DensityMatrix(np.diag(spectrum).astype(complex), (d, d))
            switch = fl.constrained_entangle(rho)
            assert not isinstance(switch, fl.NotApplicable)
            predicted = fl.geometric_mean_predicts_npt(spectrum)
            verdict = fl.ppt_check(fl.conjugate(rho, switch))
            if predicted:
                assert verdict.classification == "NPT"  # predictor never contradicts
            produced_npt += verdict.classification == "NPT"
        assert produced_npt == 1000
    _pass(11, "constrained switch NPT for 1000/1000 spectra at d = 2 and d = 3")


def test_criterion_12_pure_state_factorizations():
    rng = np.random.default_rng(12)
    for d in (2, 3):
        flat = np.full(d, 1 / np.sqrt(d))
        for _ in range(500):
            v = haar_vector(rng, d * d)
            to_product = fl.pure_to_product(v, (d, d)).unitary @ v
            coeffs = fl.schmidt_decompose(to_product, (d, d)).coefficients
            weights = np.clip(coeffs**2, 1e-300, None)
            entropy = float(-(weights * np.log(weights)).sum())
            assert abs(coeffs[0] - 1.0) <= 1e-8 and entropy <= 1e-8
            to_max = fl.pure_to_maxent(v, (d, d)).unitary @ v
            max_coeffs = fl.schmidt_decompose(to_max, (d, d)).coefficients
            assert np.max(np.abs(max_coeffs - flat)) <= 1e-8
    _pass(12, "500 random vectors per split made product and maximally entangled")


def test_criterion_13_protocol_exhaustive():
    rng = np.random.default_rng(13)
    for d in (2, 3, 4):
        phi = haar_vector(rng, d)
        outcomes = fl.teleport_outcomes(phi)
        for out in outcomes:
            assert abs(out.probability - 1 / d**2) <= 1e-10
            assert abs(out.fidelity - 1.0) <= 1e-9
        i12 = fl.Isometry(haar_unitary(rng, d), d)
        i34 = fl.Isometry(haar_unitary(rng, d), d)
        for out in fl.swap_outcomes(i12, i34):
            k, l = out.index
            assert abs(out.probability - 1 / d**2) <= 1e-10
            predicted = i34.map @ fl.weyl_operator(k, l, d).conj() @ i12.map
            assert _phase_residual(out.correction.map, predicted) <= 1e-9
    _pass(13, "teleport + swap exhaustive for d = 2, 3, 4: uniform branches, exact recovery")


def test_criterion_14_oracle_equivalences():
    rng = np.random.default_rng(14)
    for _ in range(500):
        v = haar_vector(rng, 4)
        rho = fl.DensityMatrix(np.outer(v, v.conj()), (2, 2))
        oracle = 2 * abs(v[0] * v[3] - v[1] * v[2])
        assert abs(fl.concurrence(rho) - oracle) <= 1e-8
    for _ in range(500):
        rho = random_density(rng, (2, 2), rank=int(rng.integers(1, 5)))
        is_npt = fl.ppt_check(rho).classification == "NPT"
        assert is_npt == (fl.concurrence(rho) > 0.0)
    _pass(14, "concurrence pipeline matches 2|ad-bc|; PPT verdict matches concurrence sign")


def test_criterion_15_violation_bounds_sandwich():
    # 500 random two-qubit states; drawn pure, where the flat classical branch
    # of the lower bound is a pointwise statement (see mixed-state variant in
    # test_witness_bell for the sqrt(2) C branch).
    rng = np.random.default_rng(15)
    for _ in range(500):
        v = haar_vector(rng, 4)
        rho = fl.DensityMatrix(np.outer(v, v.conj()), (2, 2))
        lower, upper = fl.verstraete_wolf_bounds(fl.concurrence(rho))
        bmax = fl.horodecki_bmax(rho)
        assert lower - 1e-6 <= bmax <= upper + 1e-6
    _pass(15, "bound sandwich max(1, sqrt(2) C) <= B <= sqrt(1 + C^2) on 500 states")
