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

U_F commutes with the parity Pi = sigma_x (x) R, R: n -> -n, so every
pipeline solves its two parity sectors instead of the full ladder.  On
the basis (|n, L> +- |-n, R>)/sqrt(2) the sector operators are
U_+- = A +- B R, where [A | B] are the left-leg rows of U_F; each is
(N+1)-dimensional.  In the symmetric frame U' = E4^{1/2} U_F E4^{-1/2}
time reversal T = sigma_x K gives T U' T^{-1} = U'^dagger (U_F misses it
by O(tau)).  On the R-adapted basis Q = (e_0, (e_n + e_-n)/sqrt2,
i (e_n - e_-n)/sqrt2), where R is diagonal and the frame change a phase,
T is complex conjugation, so each sector operator is a complex
symmetric unitary X + iY with the real symmetric Cayley transform
(I + X)^{-1} Y.  The lower sector minimum is the ground state, the even
sector on a tie within DEGENERACY_TOL (a vortex doublet).  build_floquet,
the general branch of spectrum and ground_state are the full-space
reference route.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import (
    SIGMA_X,
    SIGMA_Z,
    _check_boson_number,
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

# (I + X)^{-1} Y divides by 1 + cos(eps tau), a double zero at the zone edge,
# and within ~3e-8 of it loses every eigenphase.  Its skew part (~h^2 ulps:
# <1e-10 to |eps tau| = pi - 1e-2, >5e-8 once lost) shows when to go complex.
_REAL_SKEW_LIMIT = 1.0e-8


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
    w, v = np.linalg.eigh(build_sx(n_bosons).real)
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


def _transpose(a):
    return np.swapaxes(a, -1, -2)


def _cayley_eigh(u):
    # eigh of the Cayley transform: the real (I + X)^{-1} Y for a symmetric
    # U = X + iY unless that is ill-conditioned, else i (I - U)(I + U)^{-1}.
    eye = np.eye(u.shape[-1])
    if (u == _transpose(u)).all():
        with suppress(np.linalg.LinAlgError):
            m = np.linalg.solve(eye + u.real, u.imag)
            if np.abs(m - _transpose(m)).max() <= _REAL_SKEW_LIMIT:
                tangents, vectors = np.linalg.eigh(m + _transpose(m))
                return 0.5 * tangents, vectors
    try:
        transform = 1j * _transpose(np.linalg.solve(_transpose(eye + u), _transpose(eye - u)))
    except np.linalg.LinAlgError as exc:
        raise BranchAmbiguityError(
            "quasienergy at the folding boundary |eps|*tau = pi; shrink tau"
        ) from exc
    # Rounding leaves the transform an anti-Hermitian part growing like h^2
    # ulps; eigh of its Hermitian part keeps that out of the eigenvalues.
    transform += np.conj(_transpose(transform))
    tangents, vectors = np.linalg.eigh(transform)
    return 0.5 * tangents, vectors


def spectrum(floquet_op, tau):
    """Quasienergy decomposition of a unitary operator or a stack (..., d, d).

    The Cayley transform turns the unitary eigenproblem into a Hermitian
    one, and eigh re-orthonormalizes degenerate subspaces as a side
    effect; a symmetric X + iY takes the real transform (I + X)^{-1} Y,
    unless an eigenphase is too close to pi for it.  Quasienergies close
    to the zone edge make the transform blow up; that is reported.
    """
    u = np.asarray(floquet_op)
    if not 0.0 < tau < np.inf:
        raise ValueError(f"kick interval tau must be finite and > 0, got {tau}")
    tangents, vectors = _cayley_eigh(u)
    largest = np.abs(tangents).max()
    if largest >= _BRANCH_H_LIMIT:
        raise BranchAmbiguityError(
            f"quasienergy within 1e-9 of the folding boundary pi/tau "
            f"(|tan(eps tau/2)| = {largest:.2e}); shrink tau"
        )
    # eps = -2 atan(h)/tau falls as h rises: eigh's order reversed is ascending.
    eps = -2.0 * np.arctan(tangents[..., ::-1]) / tau
    return Spectrum(quasienergies=eps, states=vectors[..., ::-1])


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


def _fold(m):
    # S m along axis -2: rows e_0, e_n + e_-n, e_n - e_-n for n = 1 .. N/2.
    half = m.shape[-2] // 2
    up, down = m[..., half + 1:, :], m[..., half - 1::-1, :]
    return np.concatenate([m[..., half:half + 1, :], up + down, up - down], axis=-2)


@lru_cache(maxsize=16)
def _frame_phases(n_bosons, xi, tau):
    # Row and column scales (2, 2, d), even sector first, taking the fold
    # S M S^T to G Q^dagger M Q G.  On the adapted basis Q = S^T diag(f), R is
    # d = (+1 on e_0 and the symmetric pairs, -1 on the antisymmetric ones),
    # so E4^{1/2} = cos a +- i sin a R, a = N xi tau / 4, is G = e^{+-i a d}.
    half = n_bosons // 2
    d = np.concatenate([np.ones(half + 1), -np.ones(half)])
    f = np.concatenate([[1.0], np.full(half, np.sqrt(0.5)), np.full(half, 1j * np.sqrt(0.5))])
    g = np.exp(0.25j * n_bosons * xi * tau * np.multiply.outer((1.0, -1.0), d))
    table = np.stack([np.conj(f) * g, f * g])
    table.setflags(write=False)
    return table


def _sector_spectra(params):
    # Spectra of W_+- = E4^{1/2} U_+- E4^{-1/2} on the adapted basis (rows 0
    # even, 1 odd) in one spectrum() call.  U_+- = M g_+-^2, M = D_L K D_R (E1
    # E2 E3 on the left-leg rows), so W_+- = G Q^dagger M Q G, symmetric as M^T = R M R.
    kick, e1_left, e1_right, _, _ = _kick_factors(params)
    folded = _fold(_fold(e1_left[:, None] * kick * e1_right).T).T
    rows, cols = _frame_phases(params.n, params.xi, params.tau)
    w = folded * rows[:, :, None] * cols[:, None, :]
    return spectrum(0.5 * (w + _transpose(w)), params.tau)


def _to_fock(vectors, params):
    # Sector vectors x = E4^{-1/2} Q y = S^T (conj(rows) y) on the rung
    # basis from adapted-basis columns y, stacked (2, d, k) like the spectra.
    z = np.conj(_frame_phases(params.n, params.xi, params.tau)[0])[:, :, None] * vectors
    sym, anti = np.split(z[:, 1:], 2, axis=1)
    return np.concatenate([(sym - anti)[:, ::-1], z[:, :1], sym + anti], axis=1)


def _sector_ground(spec, params):
    # (eps0, state, sector) of solve_ground from the stacked sector spectra.
    eps_even, eps_odd = spec.quasienergies[:, 0]
    sector = 0 if eps_even <= eps_odd + DEGENERACY_TOL else 1
    x = _to_fock(spec.states[:, :, :1], params)[sector, :, 0]
    state = np.concatenate([x, (1 - 2 * sector) * x[::-1]])
    return min(eps_even, eps_odd), state / np.linalg.norm(state), sector


def solve_ground(params):
    """Ground quasienergy and state of U_F, solved in its parity sectors.

    Both sectors go through one stacked, real symmetric spectrum() call
    (see the module docstring), so the branch check covers every
    quasienergy of U_F.  The lower sector minimum wins, the even sector
    on a tie within DEGENERACY_TOL; eps0 is the smaller minimum.  The
    winner's lowest vector x, on the rung basis, is embedded as
    [x; +-x reversed], an exact parity eigenstate with unit norm to
    within one ulp.
    """
    eps0, state, _ = _sector_ground(_sector_spectra(params), params)
    return eps0, state
