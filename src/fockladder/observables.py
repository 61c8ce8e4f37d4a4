"""Numeric observables of ladder eigenstates.

States live on the composite index (leg m, rung n); every routine here
starts by splitting a flat state vector into its two leg amplitudes
psi_m(n).  Provided observables: phase-space densities P_m(theta) on
the discrete Brillouin zone, per-site density and phase maps, the
chiral current, the impurity entanglement entropy and rung moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import _check_boson_number, _splus_couplings, rung_values

__all__ = [
    "FockMap",
    "PHASE_MASK_THRESHOLD",
    "phase_grid",
    "phase_energy_density",
    "fock_density_phase",
    "chiral_current_numeric",
    "chiral_current_normalized",
    "entanglement_entropy_numeric",
    "rung_second_moment",
]

# Densities below this do not support a meaningful phase (vortex cores).
PHASE_MASK_THRESHOLD = 1e-14


def phase_grid(n_bosons):
    """The N + 1 phases -pi + 2 pi k / (N + 1) of the discrete Brillouin zone.

    Spacing is exactly 2 pi/(N+1), matching the rung count; the array
    is read-only.
    """
    size = _check_boson_number(n_bosons) + 1
    thetas = -np.pi + 2.0 * np.pi * np.arange(size) / size
    thetas.setflags(write=False)
    return thetas


@dataclass(frozen=True)
class FockMap:
    """Density and gauge-fixed phase per ladder site.

    Rows index the leg (left, right), columns the rung.  The phase is a
    masked array: entries whose density falls below
    PHASE_MASK_THRESHOLD carry no phase information and are masked
    rather than reported as numbers.
    """

    density: np.ndarray
    phase: np.ma.MaskedArray


def _split_legs(state):
    state = np.asarray(state)
    if state.ndim != 1 or state.size % 2 != 0:
        raise ValueError(f"state must be a flat vector of even length, got {state.shape}")
    half = state.size // 2
    return state[:half], state[half:]


def _leg(state, m):
    left, right = _split_legs(state)
    if m == -1:
        return left
    if m == 1:
        return right
    raise ValueError(f"leg index must be -1 or +1, got {m}")


def phase_energy_density(state, m, theta):
    """Probability weight of relative phase theta on leg m.

    P_m(theta) = |sum_n e^{i theta n} psi_m(n)|^2.  theta may be a
    scalar or an array of grid points.
    """
    amps = _leg(state, m)
    nvals = rung_values(amps.size - 1)
    theta = np.asarray(theta, dtype=float)
    weights = np.exp(1j * np.multiply.outer(theta, nvals)) @ amps
    out = np.abs(weights) ** 2
    return out if out.ndim else float(out)


def fock_density_phase(state):
    """Per-site density and phase of a state, gauge fixed.

    The global phase is removed by rotating the largest-magnitude
    amplitude to the positive real axis, which makes the output
    deterministic.  Phases at near-empty sites are masked.
    """
    left, right = _split_legs(state)
    stacked = np.vstack([left, right])
    density = np.abs(stacked) ** 2
    anchor = np.unravel_index(np.argmax(density), density.shape)
    gauge = stacked[anchor]
    if np.abs(gauge) > 0:
        stacked = stacked * (np.abs(gauge) / gauge)
    phase = np.ma.masked_array(
        np.angle(stacked), mask=density < PHASE_MASK_THRESHOLD
    )
    return FockMap(density=density, phase=phase)


def _ladder_correlator(state):
    # t_m = sum_n <n+1|S_+|n> conj(psi_m(n+1)) psi_m(n) per leg, of a state
    # or of each state of a stack (k, 2(N+1)); Re t gives <S_x>_m and Im t
    # gives <S_y>_m.  A row sum rounds as the sum of that row alone.
    state = np.asarray(state)
    if state.ndim not in (1, 2) or state.shape[-1] % 2 != 0:
        raise ValueError(f"state must be a flat vector of even length or a stack of them, got {state.shape}")
    legs = state.reshape(state.shape[:-1] + (2, -1))
    c = _splus_couplings(legs.shape[-1] - 1)
    t = np.sum(c * np.conj(legs[..., 1:]) * legs[..., :-1], axis=-1)
    return t[..., 0], t[..., 1]


def chiral_current_numeric(state, phi):
    """Chiral current J_C = <S_x> sin(phi) - <S_y sigma_z> cos(phi), units of J.

    This is the flux derivative of the ground-state energy by the
    Hellmann-Feynman theorem.  See chiral_current_normalized for the
    2 J_C/(N J) normalization used in scans.  A stack of states (k, 2(N+1))
    with k fluxes gives an array of k currents, each equal to its state's
    own.
    """
    t_left, t_right = _ladder_correlator(state)
    sx_total = (t_left + t_right).real
    sy_sigma_z = (t_right - t_left).imag
    current = sx_total * np.sin(phi) - sy_sigma_z * np.cos(phi)
    return current if np.ndim(current) else float(current)


def chiral_current_normalized(state, phi):
    """Chiral current in plot units 2 J_C / (N J), of a state or a stack."""
    n_bosons = np.shape(state)[-1] // 2 - 1
    return 2.0 * chiral_current_numeric(state, phi) / n_bosons


def entanglement_entropy_numeric(state):
    """Von Neumann entropy of the impurity after tracing out the condensate.

    The reduced density matrix is 2x2, so the entropy lies in
    [0, ln 2]; eigenvalues are clamped into [0, 1] before the
    logarithms and 0 ln 0 counts as 0; + 0.0 turns the -0.0 of a
    product state into 0.0.
    """
    left, right = _split_legs(state)
    psi = np.vstack([left, right])
    rho = psi @ psi.conj().T
    weights = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    return float(-sum(w * math.log(w) for w in weights if w > 0.0)) + 0.0


def rung_second_moment(state):
    """<n^2> of the rung label; measures the squared width of the state."""
    left, right = _split_legs(state)
    nvals = rung_values(left.size - 1)
    density = np.abs(left) ** 2 + np.abs(right) ** 2
    return float(np.sum(density * nvals**2))
