import math

import numpy as np
import pytest

from fockladder.floquet import SystemParams, build_floquet, ground_state, spectrum
from fockladder.observables import (
    chiral_current_normalized,
    chiral_current_numeric,
    entanglement_entropy_numeric,
    fock_density_phase,
    phase_energy_density,
    phase_grid,
    rung_second_moment,
)


def basis_state(n_bosons, n, m):
    # Rung n on leg m sits at (m == 1)(N + 1) + n + N/2: leg-major, rung-ascending.
    state = np.zeros(2 * (n_bosons + 1), dtype=complex)
    state[(m == 1) * (n_bosons + 1) + n + n_bosons // 2] = 1.0
    return state


def random_state(n_bosons, seed):
    rng = np.random.default_rng(seed)
    size = 2 * (n_bosons + 1)
    state = rng.normal(size=size) + 1j * rng.normal(size=size)
    return state / np.linalg.norm(state)


def ladder_ground(params):
    _, state = ground_state(spectrum(build_floquet(params), params.tau))
    return state


class TestPhaseGrid:
    def test_size_and_spacing(self):
        thetas = phase_grid(10)
        assert thetas.size == 11
        np.testing.assert_allclose(np.diff(thetas), 2 * np.pi / 11, atol=1e-15)
        assert thetas[0] == pytest.approx(-np.pi)

    def test_read_only(self):
        thetas = phase_grid(4)
        with pytest.raises(ValueError):
            thetas[0] = 0.0


class TestPhaseDensity:
    def test_parseval_per_leg(self):
        n_bosons = 12
        state = random_state(n_bosons, seed=7)
        thetas = phase_grid(n_bosons)
        legs = state.reshape(2, n_bosons + 1)
        for m, amps in ((-1, legs[0]), (1, legs[1])):
            total = phase_energy_density(state, m, thetas).sum() / (n_bosons + 1)
            assert total == pytest.approx(np.sum(np.abs(amps) ** 2), abs=1e-12)

    def test_single_rung_state_is_flat(self):
        # A single Fock rung has no phase information: P is constant.
        state = basis_state(6, n=1, m=-1)
        values = phase_energy_density(state, -1, phase_grid(6))
        np.testing.assert_allclose(values, 1.0, atol=1e-14)
        assert phase_energy_density(state, 1, 0.3) == pytest.approx(0.0, abs=1e-14)

    def test_scalar_theta_returns_float(self):
        state = random_state(4, seed=1)
        assert isinstance(phase_energy_density(state, -1, 0.2), float)

    def test_rejects_bad_leg(self):
        with pytest.raises(ValueError, match="leg index"):
            phase_energy_density(random_state(4, seed=2), 0, 0.1)


class TestFockMap:
    def test_density_normalized_and_shaped(self):
        params = SystemParams(n=20, mu=0.0, xi=0.5, phi=0.4)
        fock = fock_density_phase(ladder_ground(params))
        assert fock.density.shape == (2, 21)
        assert fock.density.sum() == pytest.approx(1.0, abs=1e-12)

    def test_gauge_anchor_phase_is_zero(self):
        state = random_state(10, seed=11)
        fock = fock_density_phase(state)
        anchor = np.unravel_index(np.argmax(fock.density), fock.density.shape)
        assert fock.phase[anchor] == pytest.approx(0.0, abs=1e-14)

    def test_gauge_invariance(self):
        state = random_state(10, seed=12)
        rotated = fock_density_phase(np.exp(1j * 0.7) * state)
        original = fock_density_phase(state)
        np.testing.assert_allclose(rotated.density, original.density, atol=1e-14)
        np.testing.assert_allclose(
            rotated.phase.compressed(), original.phase.compressed(), atol=1e-12
        )

    def test_masks_empty_sites(self):
        state = basis_state(4, n=0, m=1)
        fock = fock_density_phase(state)
        assert fock.phase.mask[0].all()
        assert not fock.phase.mask[1, 2]


class TestChiralCurrent:
    def test_zero_at_zero_flux(self):
        params = SystemParams(n=20, mu=0.0, xi=0.5, phi=0.0)
        assert chiral_current_normalized(ladder_ground(params), 0.0) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_normalization_factor(self):
        params = SystemParams(n=20, mu=0.0, xi=0.5, phi=0.5)
        state = ladder_ground(params)
        raw = chiral_current_numeric(state, params.phi)
        assert chiral_current_normalized(state, params.phi) == pytest.approx(
            2.0 * raw / params.n, abs=1e-14
        )

    def test_antisymmetric_in_flux(self):
        params = SystemParams(n=20, mu=0.3, xi=0.5, phi=0.6)
        forward = chiral_current_normalized(ladder_ground(params), params.phi)
        mirrored = SystemParams(n=20, mu=0.3, xi=0.5, phi=-0.6)
        backward = chiral_current_normalized(ladder_ground(mirrored), mirrored.phi)
        assert forward == pytest.approx(-backward, abs=1e-10)

    def test_meissner_current_tracks_sine(self):
        params = SystemParams(n=100, mu=0.0, xi=0.5, phi=0.4)
        value = chiral_current_normalized(ladder_ground(params), params.phi)
        assert value == pytest.approx(np.sin(params.phi), rel=0.05)

    @pytest.mark.parametrize("n_bosons", [2, 20, 100])
    def test_stack_equals_one_state_at_a_time(self, n_bosons):
        # Row sums round as the sum of one state alone: equal, not close.
        states = np.array([random_state(n_bosons, seed) for seed in range(40)])
        fluxes = np.linspace(0.0, np.pi / 2.0, 40)
        currents = chiral_current_normalized(states, fluxes)
        assert currents.shape == (40,)
        for state, phi, current in zip(states, fluxes, currents):
            assert current == chiral_current_normalized(state, phi)

    def test_one_state_gives_a_float(self):
        state = random_state(8, 0)
        assert type(chiral_current_normalized(state, 0.3)) is float
        assert type(chiral_current_numeric(state, 0.3)) is float

    def test_other_observables_refuse_a_stack(self):
        states = np.array([random_state(8, seed) for seed in range(2)])
        with pytest.raises(ValueError, match="flat vector of even length"):
            entanglement_entropy_numeric(states)


class TestEntanglementEntropy:
    def test_product_state_has_zero_entropy(self):
        state = basis_state(6, n=2, m=-1)
        value = entanglement_entropy_numeric(state)
        assert value == pytest.approx(0.0, abs=1e-14)
        # The weights are exactly 0 and 1, and -(1 ln 1) alone is -0.0.
        assert math.copysign(1.0, value) == 1.0

    def test_maximally_entangled_pair(self):
        n_bosons = 6
        state = (
            basis_state(n_bosons, n=-1, m=-1) + basis_state(n_bosons, n=1, m=1)
        ) / np.sqrt(2.0)
        assert entanglement_entropy_numeric(state) == pytest.approx(
            np.log(2.0), abs=1e-12
        )

    def test_bounded(self):
        for seed in range(5):
            value = entanglement_entropy_numeric(random_state(8, seed))
            assert 0.0 <= value <= np.log(2.0) + 1e-12


class TestRungMoments:
    def test_basis_state_moment(self):
        assert rung_second_moment(basis_state(8, n=3, m=1)) == pytest.approx(9.0)

    def test_mixture_moment(self):
        state = (basis_state(8, n=1, m=-1) + basis_state(8, n=-2, m=1)) / np.sqrt(2.0)
        assert rung_second_moment(state) == pytest.approx(2.5)
