"""Closed-form mean-field layer of the flux ladder.

Treating the relative phase theta of the junction as a classical
variable turns the ladder Hamiltonian into a 2x2 block per theta,

    h(theta) = -(N/2) [cos(theta) cos(phi) I
                       + sin(theta) sin(phi) Sigma_z + xi Sigma_x],

with Sigma_z = diag(-1, +1) in the leg basis.  Everything here is a
consequence of diagonalizing that block: the two bands, the impurity
mixing angle, the location theta0 of the lower-band minimum, the
critical flux phi_c of the Meissner to vortex transition, the chiral
current on both sides of it, the interaction strength mu_c at which
the junction's self-trapping transition coincides with it, and the
impurity entanglement entropy of the vortex ground state.

Branch logic (Meissner for phi <= phi_c, vortex above) is applied for
phi in [0, pi/2], the domain where the transition lives.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "band_energy",
    "bloch_block",
    "mixing_angle",
    "meanfield_state",
    "theta0",
    "critical_flux",
    "chiral_current_analytic",
    "mu_critical",
    "entropy_analytic",
]

# The flux domain [0, pi/2] of every closed form here, with slack for a
# grid whose last point rounds just above pi/2.  The other modules read
# their flux bound from here.
_FLUX_MAX = np.pi / 2.0 + 1e-12


def _check_flux(phi):
    if not 0.0 <= phi <= _FLUX_MAX:
        raise ValueError(f"flux {phi} outside [0, pi/2]")


def _check_domain(phi, xi):
    # The branch formulas' domain; written as negations so NaN fails.
    if not xi > 0:
        raise ValueError(f"tunneling ratio xi must be > 0, got {xi}")
    _check_flux(phi)


def band_energy(theta, phi, xi, n_bosons, band="lower"):
    """Band energies E(theta)/J = -(N/2)[cos t cos p -+ sqrt(xi^2 + sin^2 t sin^2 p)].

    The lower band takes the plus sign inside the bracket.  Accepts
    scalar or array theta.
    """
    if band not in ("lower", "upper"):
        raise ValueError(f"band must be 'lower' or 'upper', got {band!r}")
    theta = np.asarray(theta, dtype=float)
    root = np.sqrt(xi**2 + np.sin(theta) ** 2 * np.sin(phi) ** 2)
    sign = 1.0 if band == "lower" else -1.0
    out = -(n_bosons / 2.0) * (np.cos(theta) * np.cos(phi) + sign * root)
    return out if out.ndim else float(out)


def bloch_block(theta, phi, xi, n_bosons):
    """The 2x2 leg block of the ladder Hamiltonian at fixed theta."""
    diag = np.cos(theta) * np.cos(phi)
    off = np.sin(theta) * np.sin(phi)
    return -(n_bosons / 2.0) * np.array(
        [[diag - off, xi], [xi, diag + off]], dtype=float
    )


def mixing_angle(theta, phi, xi):
    """Impurity mixing angle of the lower band.

    alpha = 2 atan[(sin t sin p + sqrt(xi^2 + sin^2 t sin^2 p)) / xi].
    Requires xi > 0; at xi = 0 the legs decouple and the angle is
    undefined.
    """
    if not xi > 0:
        raise ValueError(f"mixing angle needs xi > 0 (decoupled legs at xi = {xi})")
    b = np.sin(theta) * np.sin(phi)
    return 2.0 * np.arctan((b + np.hypot(xi, b)) / xi)


def meanfield_state(theta, phi, xi):
    """Lower-band impurity spinor (cos(alpha/2), sin(alpha/2)) at one theta.

    Real and normalized; (left, right) amplitudes in the leg basis.
    """
    alpha = mixing_angle(theta, phi, xi)
    return np.array([np.cos(alpha / 2.0), np.sin(alpha / 2.0)])


def critical_flux(xi):
    """Flux phi_c = acos[(-xi + sqrt(xi^2 + 4))/2] of the transition."""
    if not xi >= 0:
        raise ValueError(f"tunneling ratio xi must be >= 0, got {xi}")
    return float(np.arccos((-xi + np.sqrt(xi**2 + 4.0)) / 2.0))


def theta0(phi, xi):
    """Relative phases minimizing the lower band.

    Returns (0,) in the Meissner phase and the symmetric pair
    (-t, +t) with sin^2 t = sin^2 phi - xi^2 cot^2 phi in the vortex
    phase.  The negative discriminant below phi_c is what closes the
    vortex branch, not an error.
    """
    _check_domain(phi, xi)
    if phi <= critical_flux(xi):
        return (0.0,)
    sin2 = np.sin(phi) ** 2 - xi**2 / np.tan(phi) ** 2
    t = float(np.arcsin(np.sqrt(max(sin2, 0.0))))
    return (-t, t)


def chiral_current_analytic(phi, xi):
    """Ground-state chiral current 2 J_C / (N J) of the infinite system.

    sin(phi) below the critical flux, and
    xi^2 cos(phi) / (sin^2 phi sqrt(xi^2 + sin^2 phi)) above it; the
    boson number drops out of this normalization.
    """
    _check_domain(phi, xi)
    if phi <= critical_flux(xi):
        return float(np.sin(phi))
    sin2 = np.sin(phi) ** 2
    return float(xi**2 * np.cos(phi) / (sin2 * np.sqrt(xi**2 + sin2)))


def mu_critical(xi):
    """Interaction mu_c = -cos(phi_c)/2 = (xi - sqrt(xi^2 + 4))/4.

    At this attraction the junction's self-trapping transition meets
    the Meissner to vortex transition.
    """
    if not xi >= 0:
        raise ValueError(f"tunneling ratio xi must be >= 0, got {xi}")
    return float((xi - np.sqrt(xi**2 + 4.0)) / 4.0)


def entropy_analytic(phi, xi):
    """Impurity entanglement entropy of the vortex ground state.

    Mixture weights f = (1 +- xi / (sin phi sqrt(xi^2 + sin^2 phi)))/2,
    clamped into [0, 1] before the logarithms; the clamp also returns
    exactly 0 throughout the Meissner phase, where the ratio reaches 1
    at phi_c and exceeds it below.  Refuses flux outside [0, pi/2],
    and is singular at sin phi = 0.
    """
    _check_domain(phi, xi)
    s = np.sin(phi)
    if s == 0.0:
        raise ValueError(
            f"entropy formula singular at flux {phi}; the separable ground "
            "state there has entropy 0"
        )
    ratio = xi / (s * np.sqrt(xi**2 + s**2))
    f_plus = np.clip(0.5 * (1.0 + ratio), 0.0, 1.0)
    f_minus = np.clip(0.5 * (1.0 - ratio), 0.0, 1.0)
    return float(-sum(f * math.log(f) for f in (f_plus, f_minus) if f > 0.0)) + 0.0
