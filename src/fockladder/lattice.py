"""Operators on the Fock-state ladder of a driven junction and impurity.

A condensate of N bosons in a double well is a spin S = N/2 in the
Schwinger representation.  Basis states are labelled by half the well
population difference, n in [-N/2, N/2], which runs along the rungs of
a synthetic two-leg ladder.  The impurity supplies the leg index
m in {-1, +1}.  Composite operators act on the tensor product with the
impurity index outermost, so each leg occupies a contiguous block of
the linear index.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "SIGMA_X",
    "SIGMA_Z",
    "dim_bec",
    "rung_values",
    "build_sz",
    "build_sx",
    "build_sy",
    "parity_operator",
]

# Impurity Pauli matrices in the leg basis, ordered (m = -1, m = +1).
# The left leg therefore carries sigma_z eigenvalue -1.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]])


def _check_boson_number(n_bosons):
    if not isinstance(n_bosons, (int, np.integer)):
        raise TypeError(f"boson number must be an integer, got {n_bosons!r}")
    if n_bosons <= 0 or n_bosons % 2 != 0:
        raise ValueError(
            f"unsupported particle number {n_bosons}: need a positive even count"
        )
    return int(n_bosons)


def dim_bec(n_bosons):
    """Dimension N + 1 of the condensate block."""
    return _check_boson_number(n_bosons) + 1


def rung_values(n_bosons):
    """Rung labels n = -N/2 .. N/2 in linear-index order."""
    half = _check_boson_number(n_bosons) // 2
    return np.arange(-half, half + 1, dtype=float)


@lru_cache(maxsize=16)
def _splus_couplings(n_bosons):
    # <n+1| S_+ |n> = sqrt(S(S+1) - n(n+1)) for n = -S .. S-1, read-only.
    s = n_bosons / 2.0
    n = rung_values(n_bosons)[:-1]
    couplings = np.sqrt(s * (s + 1.0) - n * (n + 1.0))
    couplings.setflags(write=False)
    return couplings


def build_sz(n_bosons):
    """S_z, diagonal with entries n ascending."""
    return np.diag(rung_values(n_bosons)).astype(complex)


def build_sx(n_bosons):
    """S_x = (S_+ + S_-)/2, real symmetric tridiagonal."""
    c = _splus_couplings(n_bosons) / 2.0
    return (np.diag(c, -1) + np.diag(c, 1)).astype(complex)


def build_sy(n_bosons):
    """S_y = (S_+ - S_-)/(2i)."""
    c = _splus_couplings(n_bosons) / 2.0
    return np.diag(-1j * c, -1) + np.diag(1j * c, 1)


def parity_operator(n_bosons):
    """Reflection n -> -n combined with the impurity leg flip.

    Squares to the identity and commutes with the ladder Hamiltonian
    at every flux, which is what makes the vortex doublets exactly
    degenerate in the large-N limit.
    """
    reversal = np.eye(dim_bec(n_bosons))[::-1]
    return np.kron(SIGMA_X, reversal).astype(complex)
