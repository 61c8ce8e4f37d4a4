import math

import numpy as np
import pytest
from scipy.special import xlogy

from fockladder.meanfield import (
    band_energy,
    bloch_block,
    chiral_current_analytic,
    critical_flux,
    entropy_analytic,
    meanfield_state,
    mixing_angle,
    mu_critical,
    theta0,
)

XI = 0.5
PHI_C = 0.6748888455860064
MU_C = -0.3903882032022076


class TestCriticalFlux:
    def test_frozen_value(self):
        assert critical_flux(XI) == pytest.approx(PHI_C, abs=1e-14)

    def test_defining_equation(self):
        # The vortex displacement closes at phi_c:
        # sin^2 phi_c * tan^2 phi_c = xi^2.
        phi_c = critical_flux(XI)
        assert np.sin(phi_c) ** 2 * np.tan(phi_c) ** 2 == pytest.approx(
            XI**2, abs=1e-12
        )

    def test_monotone_in_coupling(self):
        values = [critical_flux(xi) for xi in (0.1, 0.5, 1.0, 2.0)]
        assert values == sorted(values)

    def test_rejects_negative_coupling(self):
        for xi in (-0.1, math.nan):
            for closed_form in (critical_flux, mu_critical):
                with pytest.raises(ValueError, match="must be >= 0"):
                    closed_form(xi)


class TestMuCritical:
    def test_frozen_value(self):
        assert mu_critical(XI) == pytest.approx(MU_C, abs=1e-14)

    def test_tied_to_critical_flux(self):
        assert mu_critical(XI) == pytest.approx(-np.cos(critical_flux(XI)) / 2.0, abs=1e-14)


class TestBands:
    def test_frozen_value_at_zone_edge(self):
        assert band_energy(np.pi / 2, np.pi / 2, XI, 100, "lower") == pytest.approx(
            -55.90169943749474, abs=1e-11
        )
        assert band_energy(np.pi / 2, np.pi / 2, XI, 100, "upper") == pytest.approx(
            55.90169943749474, abs=1e-11
        )

    def test_matches_bloch_block_eigenvalues(self):
        for theta in (-1.2, 0.0, 0.7):
            lower, upper = np.linalg.eigvalsh(bloch_block(theta, 0.9, XI, 10))
            assert band_energy(theta, 0.9, XI, 10, "lower") == pytest.approx(lower, abs=1e-12)
            assert band_energy(theta, 0.9, XI, 10, "upper") == pytest.approx(upper, abs=1e-12)

    def test_vectorized_over_theta(self):
        thetas = np.linspace(-np.pi, np.pi, 7)
        curve = band_energy(thetas, 0.5, XI, 20)
        assert curve.shape == thetas.shape
        assert curve[3] == band_energy(0.0, 0.5, XI, 20)

    def test_rejects_unknown_band(self):
        with pytest.raises(ValueError, match="band"):
            band_energy(0.0, 0.5, XI, 20, "middle")


class TestSpinor:
    def test_frozen_mixing_angle(self):
        assert mixing_angle(0.5, 1.0, XI) == pytest.approx(2.2496973537200686, abs=1e-14)

    def test_spinor_diagonalizes_block(self):
        for theta, phi in ((-0.8, 1.2), (0.3, 0.7), (1.1, 1.5)):
            vec = meanfield_state(theta, phi, XI)
            block = bloch_block(theta, phi, XI, 2)
            lower = band_energy(theta, phi, XI, 2, "lower")
            np.testing.assert_allclose(block @ vec, lower * vec, atol=1e-12)

    def test_normalized(self):
        vec = meanfield_state(0.4, 0.9, XI)
        assert vec.shape == (2,)
        assert vec @ vec == pytest.approx(1.0, abs=1e-14)

    def test_rejects_decoupled_legs(self):
        for xi in (0.0, math.nan):
            with pytest.raises(ValueError, match="decoupled legs"):
                mixing_angle(0.5, 1.0, xi)


class TestTheta0:
    def test_meissner_phase_single_minimum(self):
        assert theta0(0.5 * PHI_C, XI) == (0.0,)
        assert theta0(critical_flux(XI), XI) == (0.0,)

    def test_frozen_vortex_value(self):
        minus, plus = theta0(1.0, XI)
        assert plus == pytest.approx(0.8911883909618808, abs=1e-14)
        assert minus == -plus
        assert np.sin(plus) ** 2 == pytest.approx(0.6050026864142232, abs=1e-14)

    def test_displacement_formula(self):
        phi = 1.3
        _, plus = theta0(phi, XI)
        expected = np.sin(phi) ** 2 - XI**2 / np.tan(phi) ** 2
        assert np.sin(plus) ** 2 == pytest.approx(expected, abs=1e-12)

    def test_minimizes_lower_band(self):
        phi = 1.1
        _, plus = theta0(phi, XI)
        step = 1e-5
        center = band_energy(plus, phi, XI, 2)
        assert center < band_energy(plus - step, phi, XI, 2)
        assert center < band_energy(plus + step, phi, XI, 2)

    def test_continuous_at_transition(self):
        above = theta0(np.nextafter(critical_flux(XI), 2.0), XI)
        assert abs(above[-1]) < 1e-4

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            theta0(2.0, XI)
        with pytest.raises(ValueError):
            theta0(1.0, 0.0)
        with pytest.raises(ValueError, match="must be > 0"):
            theta0(0.9, math.nan)
        with pytest.raises(ValueError, match="outside"):
            theta0(math.nan, XI)


class TestChiralCurrent:
    def test_meissner_branch_is_sine(self):
        for phi in (0.1, 0.3, 0.6):
            assert chiral_current_analytic(phi, XI) == pytest.approx(np.sin(phi), abs=1e-15)

    def test_frozen_vortex_value(self):
        assert chiral_current_analytic(1.0, XI) == pytest.approx(
            0.19489430256385562, abs=1e-14
        )

    def test_continuous_at_transition(self):
        phi_c = critical_flux(XI)
        below = chiral_current_analytic(phi_c, XI)
        above = chiral_current_analytic(np.nextafter(phi_c, 2.0), XI)
        assert below == pytest.approx(np.sin(phi_c), abs=1e-14)
        assert above == pytest.approx(below, abs=1e-9)

    def test_equals_flux_derivative_of_band_minimum(self):
        # J_C = (2/N) dE_-(theta0(phi), phi)/dphi; at N = 2 the
        # prefactor is 1.  Central finite difference, step 1e-6.
        step = 1e-6
        for phi in (0.4, 1.0, 1.4):
            def energy(p):
                return min(band_energy(t, p, XI, 2) for t in theta0(p, XI))

            derivative = (energy(phi + step) - energy(phi - step)) / (2.0 * step)
            assert chiral_current_analytic(phi, XI) == pytest.approx(
                derivative, abs=1e-6
            )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            chiral_current_analytic(-0.1, XI)
        with pytest.raises(ValueError):
            chiral_current_analytic(0.5, 0.0)
        with pytest.raises(ValueError, match="must be > 0"):
            chiral_current_analytic(0.3, math.nan)


class TestEntropyAnalytic:
    def test_zero_in_meissner_phase(self):
        value = entropy_analytic(0.5 * PHI_C, XI)
        assert value == 0.0
        assert math.copysign(1.0, value) == 1.0

    def test_frozen_value_at_zone_edge(self):
        assert entropy_analytic(np.pi / 2, XI) == pytest.approx(
            0.5895144857350482, abs=1e-14
        )

    def test_matches_two_well_mixture(self):
        # Vortex ground state = equal mixture of the theta0 wells; the
        # impurity density matrix averages the two spinors.
        phi = 1.2
        rho = np.zeros((2, 2))
        for t in theta0(phi, XI):
            vec = meanfield_state(t, phi, XI)
            rho += 0.5 * np.outer(vec, vec)
        weights = np.linalg.eigvalsh(rho)
        expected = float(-np.sum(xlogy(weights, weights)))
        assert entropy_analytic(phi, XI) == pytest.approx(expected, abs=1e-12)

    def test_bounded_by_ln2(self):
        for phi in np.linspace(0.05, np.pi / 2, 40):
            assert 0.0 <= entropy_analytic(phi, XI) <= np.log(2.0) + 1e-15

    def test_refuses_coupling_outside_domain(self):
        for xi in (0.0, math.nan):
            with pytest.raises(ValueError, match="must be > 0"):
                entropy_analytic(0.9, xi)

    def test_refuses_flux_outside_domain(self):
        for phi in (2.5, -0.4, math.nan):
            with pytest.raises(ValueError, match=r"outside \[0, pi/2\]"):
                entropy_analytic(phi, XI)

    def test_singular_at_zero_flux(self):
        with pytest.raises(ValueError, match="singular"):
            entropy_analytic(0.0, XI)
