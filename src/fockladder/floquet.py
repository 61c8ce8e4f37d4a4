"""Single-cycle Floquet operator, effective Hamiltonian, quasienergy spectra.

One driving period factorizes into four kicks,

    U_F = E1 E2 E3 E4,   applied right to left:
    E4 = exp(+i N xi sigma_x tau / 2)          impurity leg mixing
    E3 = exp(-i [(mu tau / N) S_z^2 - phi S_z sigma_z])
    E2 = exp(+i tau S_x)                        condensate tunneling
    E1 = exp(-i [(mu tau / N) S_z^2 + phi S_z sigma_z])

in units J = 1.  To second order in tau this equals exp(-i H_eff tau)
with

    H_eff = 2 (mu/N) S_z^2 - S_x cos(phi) - S_y sigma_z sin(phi)
            - (N xi / 2) sigma_x,

the flux-ladder Hamiltonian whose ground state carries the chiral
current studied by the experiment layer.

Quasienergies are extracted through the Cayley transform
M = i (I - U)(I + U)^{-1}, which is Hermitian for unitary U and maps
eigenphases to h = -tan(eps tau / 2).  A Hermitian eigensolve then
gives orthonormal eigenvectors even inside degenerate clusters, and
eps = -2 atan(h)/tau lands in the principal zone automatically.  The
sign convention eps_i = -arg(lambda_i)/tau makes quasienergies order
like energies of H_eff, so "ground state" means minimal eps.

U_F commutes with the parity Pi = sigma_x (x) (n -> -n), so every
pipeline solves its two parity sectors instead of the full ladder.  On
the basis (|n, L> +- |-n, R>)/sqrt(2) the sector operators are
U_+- = A +- B R, where [A | B] are the left-leg rows of U_F and R
reverses columns; each is (N+1)-dimensional.  The lower sector minimum
is the ground state, the even sector on a tie within DEGENERACY_TOL (a
vortex doublet).  build_floquet, spectrum and ground_state are the
full-space reference route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .lattice import (
    SIGMA_X,
    SIGMA_Z,
    _check_boson_number,
    _splus_couplings,
    build_sx,
    build_sy,
    dim_bec,
    parity_operator,
    rung_values,
)

__all__ = [
    "SystemParams",
    "Spectrum",
    "BranchAmbiguityError",
    "DEGENERACY_TOL",
    "physical_to_effective",
    "build_floquet",
    "build_heff",
    "spectrum",
    "ground_state",
    "solve_ground",
]

# Two quasienergies closer than this are treated as one degenerate doublet.
DEGENERACY_TOL = 1e-10

# |h| = |tan(eps tau / 2)| at |eps tau| = pi - 1e-9; beyond it the folded
# phase cannot be distinguished from the zone edge in double precision.
_BRANCH_H_LIMIT = 2.0e9


class BranchAmbiguityError(RuntimeError):
    """A quasienergy sits at the folding boundary |eps tau| = pi.

    There the assignment of eps to a branch of the logarithm is not
    determined by the data; callers should shrink tau.
    """


@dataclass(frozen=True)
class SystemParams:
    """Effective parameters of the driven junction, in units J = 1.

    n is the boson number (even, positive), mu the dimensionless
    interaction, xi the impurity/condensate tunneling ratio K/J, phi
    the synthetic flux in radians and tau the kick interval.
    """

    n: int
    mu: float
    xi: float
    phi: float
    tau: float = 0.01

    def __post_init__(self):
        _check_boson_number(self.n)
        for name in ("mu", "xi", "phi", "tau"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.xi < 0:
            raise ValueError(f"tunneling ratio xi must be >= 0, got {self.xi}")
        if self.tau <= 0:
            raise ValueError(f"kick interval tau must be > 0, got {self.tau}")


@dataclass(frozen=True)
class Spectrum:
    """Quasienergies sorted ascending with column-matched eigenvectors."""

    quasienergies: np.ndarray
    states: np.ndarray


def physical_to_effective(n, u, w, j, k, omega, tau=0.01):
    """Map lab couplings to the effective parameters.

    u is the boson-boson interaction, w the drive amplitude, j and k
    the condensate and impurity tunnelings and omega the drive
    frequency.  Pure arithmetic: mu = pi u n / (j omega tau),
    xi = k / j, phi = 2 w / omega; invertible given (j, omega, tau, n).
    """
    if j <= 0:
        raise ValueError(f"tunneling j must be > 0, got {j}")
    if omega <= 0:
        raise ValueError(f"drive frequency omega must be > 0, got {omega}")
    if tau <= 0:
        raise ValueError(f"kick interval tau must be > 0, got {tau}")
    return SystemParams(
        n=n,
        mu=np.pi * u * n / (j * omega * tau),
        xi=k / j,
        phi=2.0 * w / omega,
        tau=tau,
    )


@lru_cache(maxsize=16)
def _sx_eigensystem(n_bosons):
    # S_x is real symmetric tridiagonal with zero diagonal.
    c = _splus_couplings(n_bosons) / 2.0
    w, v = eigh_tridiagonal(np.zeros(n_bosons + 1), c)
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


@lru_cache(maxsize=8)
def _bec_kick(n_bosons, tau):
    # exp(i tau S_x) through the cached spectral decomposition.
    w, v = _sx_eigensystem(n_bosons)
    kick = (v * np.exp(1j * tau * w)) @ v.T
    kick.setflags(write=False)
    return kick


def _kick_factors(params):
    # The pieces every product of the four kicks is made of: the
    # condensate kick exp(i tau S_x), the E1 phases of each leg (E3
    # swaps them) and cos/sin of the E4 leg mixing.
    p = params
    nvals = rung_values(p.n)
    kick = _bec_kick(p.n, p.tau)

    sz2 = (p.mu * p.tau / p.n) * nvals**2
    # E1 = exp(-i [sz2 + phi n sigma_z]); sigma_z = -1 on the left leg.
    e1_left = np.exp(-1j * (sz2 - p.phi * nvals))
    e1_right = np.exp(-1j * (sz2 + p.phi * nvals))

    half_kick = 0.5 * p.n * p.xi * p.tau
    return kick, e1_left, e1_right, np.cos(half_kick), np.sin(half_kick)


def build_floquet(params):
    """Assemble the one-period evolution operator U_F = E1 E2 E3 E4.

    E1 and E3 are diagonal, E4 acts only on the leg index, so the full
    product reduces to phase-scaled copies of the condensate kick
    exp(i tau S_x) in each leg block; no matrix multiplication needed.
    """
    size = dim_bec(params.n)
    kick, e1_left, e1_right, c, s = _kick_factors(params)
    # E3 flips the sign of the flux term.
    e3_left = e1_right
    e3_right = e1_left

    u = np.empty((2 * size, 2 * size), dtype=complex)
    left_block = e1_left[:, None] * kick
    right_block = e1_right[:, None] * kick
    # E4 mixes the legs before E3 applies its phases, so both blocks in
    # an output row carry that row's leg phase.
    u[:size, :size] = left_block * (c * e3_left)[None, :]
    u[:size, size:] = left_block * (1j * s * e3_left)[None, :]
    u[size:, :size] = right_block * (1j * s * e3_right)[None, :]
    u[size:, size:] = right_block * (c * e3_right)[None, :]
    return u


def build_heff(params):
    """Effective Hamiltonian generating U_F to second order in tau."""
    p = params
    size = dim_bec(p.n)
    nvals = rung_values(p.n)
    sx = build_sx(p.n)
    sy = build_sy(p.n)
    eye_bec = np.eye(size)
    eye_imp = np.eye(2)

    h = 2.0 * (p.mu / p.n) * np.kron(eye_imp, np.diag(nvals**2)).astype(complex)
    h -= np.cos(p.phi) * np.kron(eye_imp, sx)
    h -= np.sin(p.phi) * np.kron(SIGMA_Z, sy)
    h -= 0.5 * p.n * p.xi * np.kron(SIGMA_X, eye_bec)
    return h


def spectrum(floquet_op, tau):
    """Quasienergy decomposition of a unitary operator.

    The Cayley transform turns the unitary eigenproblem into a
    Hermitian one, and eigh re-orthonormalizes degenerate subspaces as
    a side effect.  Quasienergies close to the zone edge make the
    transform blow up; that condition is reported rather than folded
    silently.
    """
    u = np.asarray(floquet_op)
    if tau <= 0:
        raise ValueError(f"kick interval tau must be > 0, got {tau}")
    eye = np.eye(u.shape[0])
    try:
        transform = 1j * np.linalg.solve((eye + u).T, (eye - u).T).T
    except np.linalg.LinAlgError as exc:
        raise BranchAmbiguityError(
            "quasienergy at the folding boundary |eps|*tau = pi; shrink tau"
        ) from exc
    tangents, vectors = np.linalg.eigh(transform)
    largest = np.abs(tangents).max()
    if largest >= _BRANCH_H_LIMIT:
        raise BranchAmbiguityError(
            f"quasienergy within 1e-9 of the folding boundary pi/tau "
            f"(|tan(eps tau/2)| = {largest:.2e}); shrink tau"
        )
    eps = -2.0 * np.arctan(tangents) / tau
    order = np.argsort(eps, kind="stable")
    return Spectrum(quasienergies=eps[order], states=vectors[:, order])


def ground_state(spec):
    """Eigenpair with minimal quasienergy of a full-space spectrum.

    No pipeline calls it: it is the full-space reference for solve_ground.
    When the two lowest quasienergies are degenerate (vortex phase at
    large N) the eigensolver returns an arbitrary basis of the doublet;
    the combination even under the parity operator is selected to keep
    the output deterministic and symmetric.

    On both branches the returned state has unit norm to within one ulp:
    the eigensolver's vector is normalized only to its own rounding, and
    the Fock density, the ``ground`` CSV and the entanglement entropy
    read the state as a normalized probability amplitude.
    """
    eps = spec.quasienergies
    vectors = spec.states
    state = vectors[:, 0]
    if eps.size > 1 and eps[1] - eps[0] <= DEGENERACY_TOL:
        n_bosons = vectors.shape[0] // 2 - 1
        pi_matrix = parity_operator(n_bosons)
        doublet = vectors[:, :2]
        overlap = doublet.conj().T @ (pi_matrix @ doublet)
        signs, basis = np.linalg.eigh(overlap)
        state = doublet @ basis[:, np.argmax(signs)]
    return eps[0], state / np.linalg.norm(state)


def _sector_spectra(params):
    # Spectra of the even and odd parity sectors U_+- = A +- B R of U_F.
    kick, e1_left, e1_right, c, s = _kick_factors(params)
    # Left-leg rows of U_F: A = U_LL, and B R = U_LR with reversed
    # columns; E3 gives the left rows the right leg's E1 phases.
    left_block = e1_left[:, None] * kick
    a = left_block * (c * e1_right)[None, :]
    b_reversed = left_block[:, ::-1] * (1j * s * e1_right[::-1])[None, :]
    # numpy.linalg only: scipy's bundled OpenBLAS, mixed in, costs more than the solve.
    return spectrum(a + b_reversed, params.tau), spectrum(a - b_reversed, params.tau)


def _sector_ground(even, odd):
    # The ground pair of solve_ground from the two sector spectra.
    eps_even, eps_odd = even.quasienergies[0], odd.quasienergies[0]
    if eps_even <= eps_odd + DEGENERACY_TOL:
        x, sign = even.states[:, 0], 1.0
    else:
        x, sign = odd.states[:, 0], -1.0
    state = np.concatenate([x, sign * x[::-1]])
    return min(eps_even, eps_odd), state / np.linalg.norm(state)


def solve_ground(params):
    """Ground quasienergy and state of U_F, solved in its parity sectors.

    Each sector block U_+- = A +- B R goes through spectrum(), so the
    branch check covers every quasienergy of the full operator.  The
    lower sector minimum wins, the even sector on a tie within
    DEGENERACY_TOL; eps0 is the smaller minimum.  The state is the
    winner's lowest vector x embedded as [x; +-x reversed], an exact
    parity eigenstate, with unit norm to within one ulp.
    """
    return _sector_ground(*_sector_spectra(params))
