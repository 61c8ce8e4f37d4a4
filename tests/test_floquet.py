from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from fockladder.floquet import (
    DEGENERACY_TOL,
    BranchAmbiguityError,
    SystemParams,
    build_floquet,
    build_heff,
    ground_state,
    sector_ground,
    sector_spectra,
    solve_ground,
    solve_grounds,
    spectrum,
)
from fockladder import floquet
from fockladder.experiments import DEFAULT_PHI_GRID
from fockladder.lattice import (
    SIGMA_X,
    SIGMA_Z,
    build_sx,
    build_sy,
    build_sz,
    dim_bec,
    parity_operator,
)
from fockladder.observables import chiral_current_normalized


def brute_force_floquet(params):
    """Reference product of the four kick exponentials, built with expm."""
    p = params
    size = dim_bec(p.n)
    sz = build_sz(p.n)
    sx = build_sx(p.n)
    eye_bec = np.eye(size)
    eye_imp = np.eye(2)

    sz2_term = (p.mu * p.tau / p.n) * np.kron(eye_imp, sz @ sz)
    flux_term = p.phi * np.kron(SIGMA_Z, sz)
    e1 = expm(-1j * (sz2_term + flux_term))
    e2 = expm(1j * p.tau * np.kron(eye_imp, sx))
    e3 = expm(-1j * (sz2_term - flux_term))
    e4 = expm(1j * (p.n * p.xi * p.tau / 2.0) * np.kron(SIGMA_X, eye_bec))
    return e1 @ e2 @ e3 @ e4


def synthetic_unitary(phases, symmetric, seed=0):
    """V diag(e^{i phases}) V^dagger with V random: real orthogonal, the
    product then symmetrised exactly, or complex unitary."""
    rng = np.random.default_rng(seed)
    size = len(phases)
    z = rng.standard_normal((size, size))
    if not symmetric:
        z = z + 1j * rng.standard_normal((size, size))
    v, _ = np.linalg.qr(z)
    u = (v * np.exp(1j * np.asarray(phases))) @ v.conj().T
    return 0.5 * (u + u.T) if symmetric else u


def adapted_basis(n_bosons):
    """Dense Q = (e_0, (e_n + e_-n)/sqrt2, i (e_n - e_-n)/sqrt2), n = 1 .. N/2."""
    size, half = n_bosons + 1, n_bosons // 2
    q = np.zeros((size, size), dtype=complex)
    q[half, 0] = 1.0
    for k in range(1, half + 1):
        q[half + k, k] = q[half - k, k] = np.sqrt(0.5)
        q[half + k, half + k], q[half - k, half + k] = 1j * np.sqrt(0.5), -1j * np.sqrt(0.5)
    return q


class TestSystemParams:
    def test_rejects_odd_n(self):
        with pytest.raises(ValueError, match="unsupported particle number"):
            SystemParams(n=5, mu=0.0, xi=0.5, phi=0.3)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError, match="tau"):
            SystemParams(n=4, mu=0.0, xi=0.5, phi=0.3, tau=0.0)

    def test_rejects_negative_xi(self):
        with pytest.raises(ValueError, match="xi"):
            SystemParams(n=4, mu=0.0, xi=-0.5, phi=0.3)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            SystemParams(n=4, mu=np.inf, xi=0.5, phi=0.3)

    def test_rejects_tau_lost_to_rounding_naming_the_smallest_that_passes(self):
        point = dict(n=8, mu=0.0, xi=0.5, phi=0.5)
        with pytest.raises(ValueError, match="tau must be >= ") as refused:
            SystemParams(**point, tau=1e-100)
        tau_min = float(str(refused.value).split(">= ")[1].split()[0])
        assert SystemParams(**point, tau=tau_min).tau == tau_min
        with pytest.raises(ValueError, match="tau must be >= "):
            SystemParams(**point, tau=np.nextafter(tau_min, 0.0))

    def test_strictest_point_accepts_tau_1e_8(self):
        # N=2, mu=xi=0 has the smallest bound N (|mu| + 1 + xi) / 2 per unit
        # tau, so the highest floor.
        assert SystemParams(n=2, mu=0.0, xi=0.0, phi=0.3, tau=1e-8).tau == 1e-8

    @pytest.mark.parametrize("n", [20, 400])
    def test_twice_the_tau_floor_matches_heff(self, n):
        tau = 2.0 * floquet._TAU_NORM_FLOOR / (0.5 * n * (0.2 + 1.0 + 0.5))
        params = SystemParams(n=n, mu=-0.2, xi=0.5, phi=0.5, tau=tau)
        exact = np.linalg.eigvalsh(build_heff(params))[0]
        assert abs(solve_ground(params)[0] - exact) <= 1e-6 * abs(exact)


class TestBuildFloquet:
    @pytest.mark.parametrize(
        "params",
        [
            SystemParams(n=6, mu=0.7, xi=0.5, phi=0.9, tau=0.05),
            SystemParams(n=6, mu=-0.4, xi=1.3, phi=0.2, tau=0.01),
            SystemParams(n=8, mu=0.0, xi=0.0, phi=1.4, tau=0.02),
        ],
    )
    def test_matches_brute_force_product(self, params):
        fast = build_floquet(params)
        reference = brute_force_floquet(params)
        np.testing.assert_allclose(fast, reference, atol=1e-12)

    def test_right_leg_phases_mirror_the_left_bit_for_bit(self):
        # E1's right-leg phases exp(-i [(mu tau / N) n^2 + phi n]) are the
        # left leg's reversed, for a column of fluxes too.
        params = SystemParams(n=20, mu=-0.45, xi=0.5, phi=0.0)
        phis = np.linspace(-1.5, 1.5, 7)[:, None]
        nvals = np.arange(-10.0, 11.0)
        direct = np.exp(-1j * ((params.mu * params.tau / params.n) * nvals**2 + phis * nvals))
        assert (floquet._kick_factors(params, phis)[2] == direct).all()

    def test_unitary(self):
        u = build_floquet(SystemParams(n=20, mu=0.5, xi=0.5, phi=1.0))
        assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() <= 1e-10

    def test_flux_free_point_decouples_legs_symmetrically(self):
        params = SystemParams(n=6, mu=0.3, xi=0.0, phi=0.0, tau=0.02)
        u = build_floquet(params)
        size = dim_bec(params.n)
        np.testing.assert_allclose(u[:size, size:], 0.0, atol=1e-15)
        np.testing.assert_allclose(u[:size, :size], u[size:, size:], atol=1e-15)


class TestBuildHeff:
    def test_matches_explicit_construction(self):
        params = SystemParams(n=4, mu=0.8, xi=0.6, phi=0.7)
        sz = build_sz(4)
        sx = build_sx(4)
        sy = build_sy(4)
        expected = (
            2.0 * (params.mu / params.n) * np.kron(np.eye(2), sz @ sz)
            - np.cos(params.phi) * np.kron(np.eye(2), sx)
            - np.sin(params.phi) * np.kron(SIGMA_Z, sy)
            - 0.5 * params.n * params.xi * np.kron(SIGMA_X, np.eye(5))
        )
        np.testing.assert_allclose(build_heff(params), expected, atol=1e-14)

    def test_hermitian(self):
        h = build_heff(SystemParams(n=20, mu=-0.4, xi=0.5, phi=1.2))
        assert np.abs(h - h.conj().T).max() <= 1e-12

    def test_commutes_with_parity(self):
        params = SystemParams(n=10, mu=0.5, xi=0.7, phi=0.9)
        h = build_heff(params)
        pi_op = parity_operator(params.n)
        np.testing.assert_allclose(h @ pi_op, pi_op @ h, atol=1e-12)


class TestSpectrum:
    def test_quasienergies_match_generator_eigenvalues(self):
        # For U = exp(-i H tau) with ||H|| tau < pi the quasienergies
        # are exactly the eigenvalues of H.
        params = SystemParams(n=20, mu=0.5, xi=0.5, phi=0.8, tau=0.01)
        h = build_heff(params)
        spec = spectrum(expm(-1j * params.tau * h), params.tau)
        np.testing.assert_allclose(
            spec.quasienergies, np.linalg.eigvalsh(h), atol=1e-9
        )

    def test_eigen_residuals_and_orthonormality(self):
        params = SystemParams(n=20, mu=0.0, xi=0.5, phi=1.0)
        u = build_floquet(params)
        spec = spectrum(u, params.tau)
        phases = np.exp(-1j * spec.quasienergies * params.tau)
        residual = np.abs(u @ spec.states - spec.states * phases).max()
        assert residual < 1e-8
        gram = spec.states.conj().T @ spec.states
        assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-8

    def test_sorted_ascending_within_zone(self):
        params = SystemParams(n=20, mu=5.0, xi=0.5, phi=0.6)
        spec = spectrum(build_floquet(params), params.tau)
        eps = spec.quasienergies
        assert np.all(np.diff(eps) >= 0)
        assert eps[0] > -np.pi / params.tau
        assert eps[-1] <= np.pi / params.tau

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError, match="tau"):
            spectrum(np.eye(4), 0.0)

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_rejects_nonfinite_tau(self, tau):
        with pytest.raises(ValueError, match="tau"):
            spectrum(np.eye(4), tau)

    def test_branch_ambiguity_at_zone_edge(self):
        # An eigenphase exactly at pi makes I + U singular.
        u = np.diag([np.exp(1j * np.pi), 1.0, 1.0j])
        with pytest.raises(BranchAmbiguityError):
            spectrum(u, 0.01)

    def test_branch_ambiguity_near_zone_edge(self):
        u = np.diag([np.exp(1j * (np.pi - 1e-10)), 1.0, 1.0j])
        with pytest.raises(BranchAmbiguityError, match="folding boundary"):
            spectrum(u, 0.01)

    def test_symmetric_branch_matches_general_branch(self):
        # P U P^dagger with a diagonal phase P has U's spectrum but is not
        # symmetric, so it takes the general complex branch.
        tau = 0.01
        phases = np.linspace(-3.0, 3.0, 12)
        u = synthetic_unitary(phases, symmetric=True)
        gauge = np.exp(1j * np.arange(phases.size))
        general = gauge[:, None] * u * gauge.conj()
        assert np.array_equal(u, u.T) and not np.array_equal(general, general.T)
        real, complex_ = spectrum(u, tau), spectrum(general, tau)
        assert np.isrealobj(real.states) and np.iscomplexobj(complex_.states)
        np.testing.assert_allclose(real.quasienergies * tau, np.sort(-phases), rtol=0, atol=1e-12)
        np.testing.assert_allclose(real.quasienergies * tau, complex_.quasienergies * tau,
                                   rtol=0, atol=1e-12)
        for op, spec in ((u, real), (general, complex_)):
            phases_out = np.exp(-1j * spec.quasienergies * tau)
            assert np.abs(op @ spec.states - spec.states * phases_out).max() < 1e-12

    def test_symmetric_operator_near_zone_edge_stays_real(self):
        # eigh(Y) and atan2 divide by nothing, so a phase at pi - 1e-4 keeps
        # the real route and full accuracy (8.9e-16 measured).
        tau = 0.01
        phases = np.append(np.linspace(-3.0, 2.9, 11), np.pi - 1e-4)
        u = synthetic_unitary(phases, symmetric=True)
        spec = spectrum(u, tau)
        assert np.isrealobj(spec.states)
        np.testing.assert_allclose(spec.quasienergies * tau, np.sort(-phases), rtol=0, atol=1e-12)
        phases_out = np.exp(-1j * spec.quasienergies * tau)
        assert np.abs(u @ spec.states - spec.states * phases_out).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_phases_sharing_a_sine_take_general_transform(self, seed):
        # Eigenphases a and pi - a are one eigenvalue of Y, so eigh(Y) mixes
        # their vectors (O^T X O off-diagonal ~0.5); the guard hands the
        # operator to the complex transform, which separates them.
        tau = 0.01
        phases = np.array([0.7, np.pi - 0.7, -2.0, -0.3, 1.2, 2.5])
        u = synthetic_unitary(phases, symmetric=True, seed=seed)
        spec = spectrum(u, tau)
        assert np.iscomplexobj(spec.states)
        np.testing.assert_allclose(spec.quasienergies * tau, np.sort(-phases), rtol=0, atol=1e-12)
        phases_out = np.exp(-1j * spec.quasienergies * tau)
        assert np.abs(u @ spec.states - spec.states * phases_out).max() <= 1e-12

    @pytest.mark.parametrize(
        "symmetric, offset",
        [(True, 1e-7), (False, 1e-7), (False, 1e-4)],
        ids=["symmetric-1e-7", "general-1e-7", "general-1e-4"],
    )
    def test_phase_near_zone_edge_leaves_other_quasienergies_exact(self, symmetric, offset):
        # The complex transform's anti-Hermitian rounding part grows like
        # h^2 ulps; unless eigh sees only the Hermitian part, one phase at
        # pi - 1e-7 (still accepted) shifts every other one by up to 2e-2.
        # Symmetric operators take the real route; at pi - 1e-4 that is the
        # test above.
        tau = 0.01
        phases = np.append(np.linspace(-3.0, 2.9, 11), np.pi - offset)
        for seed in range(4):
            u = synthetic_unitary(phases, symmetric, seed)
            spec = spectrum(u, tau)
            np.testing.assert_allclose(spec.quasienergies * tau, np.sort(-phases), rtol=0, atol=1e-8)
            phases_out = np.exp(-1j * spec.quasienergies * tau)
            assert np.abs(u @ spec.states - spec.states * phases_out).max() < 1e-8

    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "general"])
    @pytest.mark.parametrize("offset", [0.0, 1e-10])
    def test_branch_ambiguity_on_both_branches(self, symmetric, offset):
        u = synthetic_unitary([np.pi - offset, 0.0, 0.5 * np.pi], symmetric)
        with pytest.raises(BranchAmbiguityError, match="folding boundary"):
            spectrum(u, 0.01)

    def test_stacked_call_equals_single_calls(self):
        tau = 0.01
        points = [SystemParams(n=8, mu=0.3, xi=0.5, phi=phi) for phi in (0.2, 1.1, 1.5)]
        stacks = (
            [build_floquet(p) for p in points],
            [synthetic_unitary(np.linspace(-2.0, 2.5, 9), True, seed) for seed in range(3)],
        )
        for ops in stacks:
            stacked = spectrum(np.stack(ops), tau)
            assert stacked.quasienergies.shape == (3, ops[0].shape[0])
            for k, op in enumerate(ops):
                single = spectrum(op, tau)
                np.testing.assert_allclose(stacked.quasienergies[k], single.quasienergies,
                                           rtol=1e-14, atol=0)
                np.testing.assert_allclose(stacked.states[k], single.states, rtol=0, atol=1e-13)

    def test_accepts_phase_clear_of_zone_edge(self):
        u = np.diag([np.exp(1j * (np.pi - 1e-7)), 1.0, 1.0j])
        spec = spectrum(u, 0.01)
        assert np.isfinite(spec.quasienergies).all()


class TestGroundState:
    def test_ground_is_minimal_quasienergy(self):
        # The second point is that of `ground --n 8 --phi 0.5`: there the
        # raw eigh vector is 2 ulp short of unit norm.
        for params in (
            SystemParams(n=20, mu=0.5, xi=0.5, phi=0.4),
            SystemParams(n=8, mu=0.0, xi=0.5, phi=0.5),
        ):
            spec = spectrum(build_floquet(params), params.tau)
            assert spec.quasienergies[1] - spec.quasienergies[0] > DEGENERACY_TOL
            eps0, state = ground_state(spec)
            assert eps0 == spec.quasienergies[0]
            assert abs(np.linalg.norm(state) - 1.0) <= np.finfo(float).eps

    def test_gapped_ground_matches_heff_ground(self):
        params = SystemParams(n=20, mu=0.5, xi=0.5, phi=0.5)
        _, floquet_ground = ground_state(spectrum(build_floquet(params), params.tau))
        h = build_heff(params)
        _, vectors = np.linalg.eigh(h)
        fidelity = np.abs(np.vdot(vectors[:, 0], floquet_ground)) ** 2
        assert fidelity > 1.0 - 1e-4

    def test_degenerate_doublet_resolved_to_parity_even(self):
        # Deep vortex phase at large N: the lowest doublet is degenerate
        # to below the tie-break threshold and the returned combination
        # must be the parity-even one.
        params = SystemParams(n=100, mu=0.0, xi=0.5, phi=1.4)
        spec = spectrum(build_floquet(params), params.tau)
        assert spec.quasienergies[1] - spec.quasienergies[0] < 1e-10
        _, state = ground_state(spec)
        pi_op = parity_operator(params.n)
        assert np.real(np.vdot(state, pi_op @ state)) == pytest.approx(1.0, abs=1e-8)
        assert abs(np.linalg.norm(state) - 1.0) <= np.finfo(float).eps


# Doublets split by 6e-10 and 2e-10, just above DEGENERACY_TOL.
NEAR_DOUBLETS = [
    SystemParams(n=20, mu=0.0, xi=0.5, phi=5.0 * np.pi / 12.0),
    SystemParams(n=200, mu=-0.45, xi=0.5, phi=5.0 * np.pi / 24.0),
]


def _parity_expectation(state, n_bosons):
    return np.real(np.vdot(state, parity_operator(n_bosons) @ state))


class TestSolveGround:
    @pytest.mark.parametrize("n", [2, 8, 20, 100])
    @pytest.mark.parametrize("mu", [-0.45, 0.0, 5.0])
    def test_matches_full_space_route(self, n, mu):
        for phi in [-0.3, *np.linspace(0.0, np.pi / 2.0, 13)]:
            params = SystemParams(n=n, mu=mu, xi=0.5, phi=float(phi))
            full_eps, full_state = ground_state(spectrum(build_floquet(params), params.tau))
            eps, state = solve_ground(params)
            assert abs(eps - full_eps) <= 1e-12 * max(1.0, abs(full_eps))
            assert chiral_current_normalized(state, phi) == pytest.approx(
                chiral_current_normalized(full_state, phi), abs=1e-12
            )

    @pytest.mark.parametrize("n", [8, 20, 100])
    @pytest.mark.parametrize("mu, xi, phi", [(-0.45, 0.5, 0.3), (0.0, 0.5, 1.4), (5.0, 1.3, 0.9)])
    def test_sector_operators_symmetric_in_the_symmetric_frame(self, n, mu, xi, phi):
        # U' = E4^{1/2} U_F E4^{-1/2} in full space, restricted to each parity
        # sector as U'_LL +- U'_LR R and taken to the adapted basis, is
        # symmetric before any symmetrising; without the frame change it is
        # not.  Its eigenvectors are the real orthogonal O of eigh(Y), and
        # sector_spectra maps them to eigenstates [x; +-x reversed]/sqrt2 of
        # U_F itself.
        params = SystemParams(n=n, mu=mu, xi=xi, phi=phi)
        size = n + 1
        q, reversal = adapted_basis(n), np.eye(size)[::-1]
        half_e4 = expm(0.25j * n * xi * params.tau * np.kron(SIGMA_X, np.eye(size)))
        u = build_floquet(params)
        framed = half_e4 @ u @ half_e4.conj().T
        built = floquet._sector_operators(params, [params.phi])[0]
        # As built it is symmetric to rounding; LAPACK and sector_spectra
        # read its lower triangle, mirrored.
        assert np.abs(built - np.swapaxes(built, -1, -2)).max() <= 1e-14
        adapted = spectrum(floquet._lower_mirror(built, params), params.tau)
        assert np.isrealobj(adapted.states)
        spec = sector_spectra(params)
        np.testing.assert_array_equal(spec.quasienergies, adapted.quasienergies)
        for k, sign in enumerate((1.0, -1.0)):
            w = q.conj().T @ (framed[:size, :size] + sign * framed[:size, size:] @ reversal) @ q
            assert np.abs(w - w.T).max() <= 1e-14
            plain = q.conj().T @ (u[:size, :size] + sign * u[:size, size:] @ reversal) @ q
            assert np.abs(plain - plain.T).max() >= 1e-4
            phases = np.exp(-1j * spec.quasienergies[k] * params.tau)
            assert np.abs(w @ adapted.states[k] - adapted.states[k] * phases).max() <= 1e-12
            states = np.concatenate([spec.states[k], sign * spec.states[k][::-1]]) / np.sqrt(2.0)
            assert np.abs(u @ states - states * phases).max() <= 1e-12
            assert np.abs(states.conj().T @ states - np.eye(size)).max() <= 1e-12

    @pytest.mark.parametrize(
        "params, doublet",
        [
            (SystemParams(n=100, mu=0.0, xi=0.5, phi=1.4), True),
            (SystemParams(n=8, mu=0.0, xi=0.5, phi=0.5), False),
        ],
    )
    def test_unit_norm_on_both_branches(self, params, doublet):
        spec = spectrum(build_floquet(params), params.tau)
        assert (spec.quasienergies[1] - spec.quasienergies[0] <= DEGENERACY_TOL) == doublet
        _, state = solve_ground(params)
        assert abs(np.linalg.norm(state) - 1.0) <= np.finfo(float).eps
        if doublet:
            assert _parity_expectation(state, params.n) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("params", NEAR_DOUBLETS)
    def test_exact_parity_at_near_doublets(self, params):
        # Gaps of 6e-10 and 2e-10, above DEGENERACY_TOL: the full-space
        # eigh leaks across sectors here, the sector solve cannot.
        gap = np.diff(spectrum(build_floquet(params), params.tau).quasienergies[:2])[0]
        assert DEGENERACY_TOL < gap < 1e-9
        _, state = solve_ground(params)
        assert abs(abs(_parity_expectation(state, params.n)) - 1.0) <= 1e-12

    def test_certified_points_skip_the_full_sector_solve(self, monkeypatch):
        # mu=0, N=100: every |eps tau| <= 0.75, so the Cholesky certificate
        # holds and no full sector spectrum is needed.
        def refuse(params):
            raise AssertionError("full sector solve on a certified point")

        monkeypatch.setattr(floquet, "sector_spectra", refuse)
        for phi in np.linspace(0.0, np.pi / 2.0, 13):
            eps, state = solve_ground(SystemParams(n=100, mu=0.0, xi=0.5, phi=float(phi)))
            assert np.isfinite(eps) and abs(np.linalg.norm(state) - 1.0) <= np.finfo(float).eps

    @pytest.mark.parametrize("phi", [0.0, 0.7, 1.4])
    def test_uncertified_point_falls_back_to_full_sector_solve(self, phi):
        # mu=5, N=100: the interaction pushes eigenphases past pi/2, X is not
        # positive definite, and the full sector spectra decide.
        params = SystemParams(n=100, mu=5.0, xi=0.5, phi=phi)
        assert not _certified(params)
        eps, state = solve_ground(params)
        full_eps, full_state, _ = sector_ground(sector_spectra(params))
        assert eps == full_eps
        np.testing.assert_array_equal(state, full_state)

    def test_failed_residual_check_falls_back_to_full_sector_solve(self, monkeypatch):
        # A certified point whose inverse-iteration vector is refused takes
        # the full sector spectra too.
        params = SystemParams(n=20, mu=0.0, xi=0.5, phi=0.7)
        assert _certified(params)
        monkeypatch.setattr(floquet, "_RESIDUAL_LIMIT", -1.0)
        assert not _certified(params)
        eps, state = solve_ground(params)
        full_eps, full_state, _ = sector_ground(sector_spectra(params))
        assert eps == full_eps
        np.testing.assert_array_equal(state, full_state)

    @pytest.mark.parametrize("params", NEAR_DOUBLETS)
    def test_both_routes_pick_one_sector_at_near_doublets(self, params):
        # The same sector and, up to sign, the same state: states of the two
        # sectors are orthogonal.
        _, states, certified = floquet._certified_grounds(params, [params.phi])
        assert certified[0]
        _, full_state, _ = sector_ground(sector_spectra(params))
        assert abs(abs(np.vdot(states[0], full_state)) - 1.0) <= 1e-12


def _certified(params):
    # Whether the ground-only route certifies this point on its own.
    return bool(floquet._certified_grounds(params, [params.phi])[2][0])


class TestSolveGrounds:
    # The stacked route: every point bit for bit its one-flux solve.
    FLUXES = np.linspace(0.0, np.pi / 2.0, 35)

    @pytest.mark.parametrize("n", [8, 20, 100])
    @pytest.mark.parametrize("mu", [-0.45, 0.0, 1.0])
    def test_stacks_equal_one_flux_solves(self, monkeypatch, n, mu):
        # Stacks of 1, 3 and 31 fluxes, unsplit by the byte budget: 315
        # points over the nine cases, the currents of the stack from one
        # stacked call.
        monkeypatch.setattr(floquet, "_STACK_BYTES", 1 << 30)
        params = SystemParams(n=n, mu=mu, xi=0.5, phi=0.0)
        for stack in (self.FLUXES[:1], self.FLUXES[1:4], self.FLUXES[4:]):
            eps, states = solve_grounds(params, stack)
            currents = chiral_current_normalized(states, stack)
            assert eps.shape == stack.shape and states.shape == (stack.size, 2 * (n + 1))
            for k, phi in enumerate(stack):
                eps0, state = solve_ground(SystemParams(n=n, mu=mu, xi=0.5, phi=float(phi)))
                assert eps[k] == eps0
                assert (states[k] == state).all()
                assert currents[k] == chiral_current_normalized(state, float(phi))

    def test_uncertified_stack_equals_full_sector_route(self):
        params = SystemParams(n=100, mu=5.0, xi=0.5, phi=0.0, tau=0.01)
        fluxes = np.linspace(0.0, 1.5, 7)
        eps, states = solve_grounds(params, fluxes)
        for k, phi in enumerate(fluxes):
            point = SystemParams(n=100, mu=5.0, xi=0.5, phi=float(phi), tau=0.01)
            assert not _certified(point)
            full_eps, full_state, _ = sector_ground(sector_spectra(point))
            assert eps[k] == full_eps
            assert (states[k] == full_state).all()

    def test_only_the_point_failing_the_residual_gate_falls_back(self, monkeypatch):
        fluxes = np.array([0.3, 0.7, 1.1])
        params = SystemParams(n=20, mu=0.0, xi=0.5, phi=0.0)
        expected = [solve_ground(SystemParams(n=20, mu=0.0, xi=0.5, phi=phi)) for phi in fluxes]
        full = []

        def recorded(point):
            full.append(point.phi)
            return sector_spectra(point)

        monkeypatch.setattr(floquet, "sector_spectra", recorded)
        # The gate compares each point's residual with its own limit.
        monkeypatch.setattr(floquet, "_RESIDUAL_LIMIT", np.array([1e-12, -1.0, 1e-12]))
        eps, states = solve_grounds(params, fluxes)
        assert full == [0.7]
        for k in (0, 2):
            assert eps[k] == expected[k][0] and (states[k] == expected[k][1]).all()
        full_eps, full_state, _ = sector_ground(sector_spectra(SystemParams(n=20, mu=0.0, xi=0.5, phi=0.7)))
        assert eps[1] == full_eps and (states[1] == full_state).all()

    def test_failed_factorization_halves_the_stack(self, monkeypatch):
        # One flux whose Cholesky fails sends its stack of 8 through halves
        # down to that flux alone, which takes the full sector route; its
        # certified neighbours keep their one-flux numbers.
        fluxes = np.linspace(0.1, 1.5, 8)
        params = SystemParams(n=20, mu=0.0, xi=0.5, phi=0.0)
        expected = [solve_ground(replace(params, phi=float(phi))) for phi in fluxes]
        bad = floquet._sector_operators(params, fluxes[2:3]).real - floquet._COS_FLOOR * np.eye(21)
        cholesky, certified, sizes = np.linalg.cholesky, floquet._certified_grounds, []

        def refuse_the_bad_flux(a):
            if (a == bad).all(axis=(-3, -2, -1)).any():
                raise np.linalg.LinAlgError("bad flux")
            return cholesky(a)

        def recorded(point, phis):
            sizes.append(len(phis))
            return certified(point, phis)

        monkeypatch.setattr(floquet.np.linalg, "cholesky", refuse_the_bad_flux)
        monkeypatch.setattr(floquet, "_certified_grounds", recorded)
        eps, states = solve_grounds(params, fluxes)
        assert sizes == [8, 4, 2, 2, 1, 1, 4]
        full_eps, full_state, _ = sector_ground(sector_spectra(replace(params, phi=float(fluxes[2]))))
        assert eps[2] == full_eps and (states[2] == full_state).all()
        for k in (0, 1, 3, 4, 5, 6, 7):
            assert eps[k] == expected[k][0] and (states[k] == expected[k][1]).all()

    def test_factorizations_read_the_lower_triangle(self):
        # The certificate covers the matrices the shifts and the LU see: the
        # operator as built is not exactly symmetric, and cholesky and eigvalsh
        # of it equal those of its lower mirror bit for bit.
        params = SystemParams(n=20, mu=-0.45, xi=0.5, phi=0.0)
        w = floquet._sector_operators(params, self.FLUXES[::7])
        mirror, shift = floquet._lower_mirror(w, params), floquet._COS_FLOOR * np.eye(21)
        assert (w != np.swapaxes(w, -1, -2)).any() and (mirror == np.swapaxes(mirror, -1, -2)).all()
        assert (np.linalg.cholesky(w.real - shift) == np.linalg.cholesky(mirror.real - shift)).all()
        assert (np.linalg.eigvalsh(w.imag) == np.linalg.eigvalsh(mirror.imag)).all()

    @pytest.mark.parametrize("size", [21, 202])
    @pytest.mark.parametrize("shape", [(), (7,)])
    @pytest.mark.parametrize("is_complex", [False, True])
    def test_unit_rows_divide_by_each_rows_own_norm_bit_for_bit(self, size, shape, is_complex):
        # The unit-norm contract of the states (one ulp) rests on this; an
        # einsum norm rounds differently.
        rng = np.random.default_rng(size)
        rows = rng.standard_normal(shape + (size,))
        if is_complex:
            rows = rows + 1j * rng.standard_normal(rows.shape)
        expected = rows.copy()
        for index in np.ndindex(shape):
            expected[index] /= np.linalg.norm(expected[index])
        assert (floquet._unit_rows(rows) == expected).all()

    def test_stacks_are_split_by_the_byte_budget(self, monkeypatch):
        # A budget of two N=20 sector-operator pairs: stacks of 2, 2 and 1.
        sizes = []
        certified = floquet._certified_grounds

        def recorded(params, phis):
            sizes.append(len(phis))
            return certified(params, phis)

        monkeypatch.setattr(floquet, "_certified_grounds", recorded)
        monkeypatch.setattr(floquet, "_STACK_BYTES", 2 * 32 * 21 * 21)
        fluxes = np.linspace(0.1, 1.5, 5)
        eps, _ = solve_grounds(SystemParams(n=20, mu=0.0, xi=0.5, phi=0.0), fluxes)
        assert sizes == [2, 2, 1]
        assert list(eps) == [solve_ground(SystemParams(n=20, mu=0.0, xi=0.5, phi=phi))[0]
                             for phi in fluxes]

    def test_refuses_a_non_finite_flux(self):
        with pytest.raises(ValueError, match="phi must be finite"):
            solve_grounds(SystemParams(n=8, mu=0.0, xi=0.5, phi=0.0), [0.2, np.nan])


class TestRandomAudit:
    # Seeded draws over the accepted domain, each seed fixed before any
    # result was seen: a failing draw is a defect of the engine.

    def _draw(self, rng):
        n = int(2 * rng.integers(1, 31))
        mu = float(rng.uniform(-5.0, 20.0))
        xi = float(rng.uniform(0.0, 4.0)) if rng.random() < 0.5 else 0.0
        phi = float(rng.uniform(-np.pi, np.pi))
        tau = float(np.exp(rng.uniform(np.log(3e-4), np.log(0.6))))
        return SystemParams(n=n, mu=mu, xi=xi, phi=phi, tau=tau)

    def test_points_match_the_full_space_route(self):
        # Even N in [2, 60], mu in [-5, 20], xi = 0 or in [0, 4], phi in
        # [-pi, pi], tau log-uniform in [3e-4, 0.6].
        rng = np.random.default_rng(20261020)
        for _ in range(150):
            params = self._draw(rng)
            try:
                eps0, state = solve_ground(params)
            except BranchAmbiguityError:
                continue
            u = build_floquet(params)
            phase = np.exp(-1j * eps0 * params.tau)
            assert abs(eps0 * params.tau - np.min(-np.angle(np.linalg.eigvals(u)))) <= 1e-9, params
            assert np.abs(u @ state - phase * state).max() <= 1e-8, params

    def _assert_stack_equals_one_flux_solves(self, params, phis):
        singles = []
        for phi in phis:
            try:
                singles.append(solve_ground(replace(params, phi=float(phi))))
            except BranchAmbiguityError:
                with pytest.raises(BranchAmbiguityError):
                    solve_grounds(params, phis)
                return
        eps, states = solve_grounds(params, phis)
        for k, (eps0, state) in enumerate(singles):
            assert eps[k] == eps0 and (states[k] == state).all(), (params, phis[k])

    def test_flux_lists_mixing_both_routes_equal_one_flux_solves(self):
        # tau puts the closed-form bound tau N (|mu| + 1 + xi) / 2 in [1.3,
        # 2.2], where at small |mu| and xi ~ 1 the Cholesky certificate
        # holds at some fluxes and not at others.
        rng = np.random.default_rng(20261021)
        mixed = 0
        for _ in range(30):
            n = int(2 * rng.integers(1, 21))
            mu, xi = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 2.0))
            tau = float(rng.uniform(1.3, 2.2) / (0.5 * n * (abs(mu) + 1.0 + xi)))
            phis = rng.uniform(-np.pi, np.pi, int(rng.integers(2, 25)))
            params = SystemParams(n=n, mu=mu, xi=xi, phi=0.0, tau=tau)
            certified = {_certified(replace(params, phi=float(phi))) for phi in phis}
            mixed += certified == {True, False}
            self._assert_stack_equals_one_flux_solves(params, phis)
        assert mixed >= 5

    def test_singular_shift_point_in_its_guard_stack(self):
        # The default-grid guard of find_mu_max(20, 0.5) at mu=-0.58 holds
        # phi=0.99484, where Y - lambda I was exactly singular in LU
        # (OpenBLAS 0.3.31): its stack is then refactored one flux at a time.
        guard = DEFAULT_PHI_GRID[::4]
        assert abs(guard[19] - 0.99484) < 1e-5
        params = SystemParams(n=20, mu=-0.58, xi=0.5, phi=0.0, tau=0.01)
        self._assert_stack_equals_one_flux_solves(params, guard)

    def test_singular_shift_point_in_a_brent_stack(self):
        # A lockstep Brent stack of find_mu_max(20, 0.5) at mu=-0.59 holds
        # phi=1.516207359787316, where Y - lambda I is exactly singular in LU
        # (OpenBLAS 0.3.31): the stack is then halved down to that flux.
        phis = np.array([0.5764353341037074, 0.6787189860163299, 1.4114876046676563,
                         1.516207359787316, 1.5696817820710212, 0.6787186293332123])
        params = SystemParams(n=20, mu=-0.59, xi=0.5, phi=0.0, tau=0.01)
        self._assert_stack_equals_one_flux_solves(params, phis)
