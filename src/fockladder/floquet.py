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

Quasienergies eps = -arg(lambda)/tau, in (-pi/tau, pi/tau], order like
energies of H_eff: "ground state" means minimal eps.

U_F commutes with the parity Pi = sigma_x (x) R, R: n -> -n, so every
pipeline solves its two parity sectors instead of the full ladder.  On
the basis (|n, L> +- |-n, R>)/sqrt(2) the sector operators are
U_+- = A +- B R, where [A | B] are the left-leg rows of U_F; each is
(N+1)-dimensional.  In the symmetric frame U' = E4^{1/2} U_F E4^{-1/2}
time reversal T = sigma_x K gives T U' T^{-1} = U'^dagger (U_F misses it
by O(tau)).  On the R-adapted basis Q = (e_0, (e_n + e_-n)/sqrt2,
i (e_n - e_-n)/sqrt2), where R is diagonal and the frame change a phase,
T is complex conjugation, so each sector operator is a complex
symmetric unitary W = X + iY.  Then X^2 + Y^2 = I and XY = YX, so
W = O diag(exp(-i eps tau)) O^T with O real orthogonal from eigh(Y):
lambda_Y = -sin(eps tau) and diag(O^T X O) = cos(eps tau).  Phases a and
pi - a share a sine and mix in eigh(Y); O^T X O is then not diagonal and
W takes the Hermitian Cayley transform i (I - U)(I + U)^{-1}, the route of
every non-symmetric unitary.

solve_grounds needs one eigenpair per flux.  A Cholesky factorization
of X - _COS_FLOOR I certifies every cos(eps tau) > _COS_FLOOR, so a
sector's minimum -arcsin(lambda_Y)/tau is at its top eigenvalue of Y,
and inverse iteration gives the winner's vector; where that fails (large
mu N tau, e.g. N=100, mu=5) sector_spectra solves both sectors in full.
Only that route meets the zone edge; its BranchAmbiguityError names mu, phi.
Either way sector_ground takes the lower minimum, the even sector on a
tie within DEGENERACY_TOL (a vortex doublet).  The sector operators come
from one cached frame product, symmetric to rounding; cholesky and
eigvalsh read their lower triangle, and the LU and sector_spectra its
mirror.  The fluxes of one solve_grounds call share every other
parameter and go through the factorizations as one stack, in chunks of
about _STACK_BYTES per (k, 2, d, d) array, halved where one fails; each
point's numbers are bit for bit those of solving it alone, and
solve_ground is the one-flux case.
build_floquet, the general branch of spectrum and ground_state are the
full-space reference route.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    "build_floquet",
    "build_heff",
    "spectrum",
    "ground_state",
    "sector_spectra",
    "sector_ground",
    "solve_ground",
    "solve_grounds",
]

# Two quasienergies closer than this are treated as one degenerate doublet.
DEGENERACY_TOL = 1e-10

# Smallest accepted tau N (|mu| + 1 + xi) / 2, the closed-form bound on
# tau |H_eff|: U_F's rounding (~1e-16) over it is the relative eps0 error.
_TAU_NORM_FLOOR = 1e-8

# Within this of |eps tau| = pi the branch of eps is not determined.
_BRANCH_MARGIN = 1e-9
# Off-diagonal |X O - O diag(c)| of an eigh(Y) basis O: <=3e-15 on the sector
# operators, 6e-11 on bands at N=400, ~0.5 where phases a, pi - a mix.
_MIXING_LIMIT = 1e-8
# arcsin amplifies the rounding of lambda_Y by 1/cos(eps tau) <= 1/_COS_FLOOR.
_COS_FLOOR = 0.05
# |Y v - lambda v| accepted from inverse iteration (reads <=2e-15 to N=200).
_RESIDUAL_LIMIT = 1e-12
# Bytes of one (k, 2, d, d) complex stack of sector operators: 18 fluxes at
# N=20, one from N=64.  A solve holds several such arrays at once; stacks of
# 16 and 31 cost the same per flux at N=20, and stacks of 3 at N=100 were no
# faster than one flux but raised mu-scan's peak RSS by 4%.
_STACK_BYTES = 1 << 18


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
        tau_min = _TAU_NORM_FLOOR / (0.5 * self.n * (abs(self.mu) + 1.0 + self.xi))
        if self.tau < tau_min:
            raise ValueError(f"kick interval tau must be >= {tau_min} at n={self.n}, "
                             f"mu={self.mu}, xi={self.xi}, got {self.tau}: below it "
                             "rounding in U_F swamps the kick phases")


@dataclass(frozen=True)
class Spectrum:
    """Quasienergies sorted ascending with column-matched eigenvectors."""

    quasienergies: np.ndarray
    states: np.ndarray


@lru_cache(maxsize=8)
def _bec_kick(n_bosons, tau):
    # exp(i tau S_x) through the spectral decomposition of the real S_x.
    w, v = np.linalg.eigh(build_sx(n_bosons).real)
    kick = (v * np.exp(1j * tau * w)) @ v.T
    kick.setflags(write=False)
    return kick


def _kick_factors(params, phi):
    # The pieces every product of the four kicks is made of: the
    # condensate kick exp(i tau S_x), the E1 phases of each leg (E3
    # swaps them) and cos/sin of the E4 leg mixing.  phi may be a column
    # (k, 1) of fluxes; the phases then are (k, d).
    p = params
    nvals = rung_values(p.n)
    kick = _bec_kick(p.n, p.tau)

    sz2 = (p.mu * p.tau / p.n) * nvals**2
    # E1 = exp(-i [sz2 + phi n sigma_z]); sigma_z = -1 on the left leg.
    e1_left = np.exp(-1j * (sz2 - phi * nvals))
    e1_right = e1_left[..., ::-1]  # n -> -n, exactly: nvals is odd

    half_kick = 0.5 * p.n * p.xi * p.tau
    return kick, e1_left, e1_right, np.cos(half_kick), np.sin(half_kick)


def build_floquet(params):
    """Assemble the one-period evolution operator U_F = E1 E2 E3 E4.

    E1 and E3 are diagonal, E4 acts only on the leg index, so the full
    product reduces to phase-scaled copies of the condensate kick
    exp(i tau S_x) in each leg block; no matrix multiplication needed.
    """
    size = dim_bec(params.n)
    kick, e1_left, e1_right, c, s = _kick_factors(params, params.phi)
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


def _symmetric_eigh(u):
    # (eps tau, vectors), ascending, of a symmetric unitary U = X + iY from
    # eigh(Y) and diag(O^T X O); None where O^T X O is not diagonal.
    sines, vectors = np.linalg.eigh(u.imag)
    x_vectors = u.real @ vectors
    cosines = np.einsum("...ij,...ij->...j", vectors, x_vectors)
    if np.abs(x_vectors - vectors * cosines[..., None, :]).max() > _MIXING_LIMIT:
        return None
    angles = -np.arctan2(sines, cosines)
    order = np.argsort(angles, axis=-1, kind="stable")
    return np.take_along_axis(angles, order, -1), np.take_along_axis(vectors, order[..., None, :], -1)


def _cayley_eigh(u):
    # (eps tau, vectors), ascending, from eigh of i (I - U)(I + U)^{-1}, whose
    # eigenvalues are h = -tan(eps tau / 2).
    eye = np.eye(u.shape[-1])
    try:
        transform = 1j * _transpose(np.linalg.solve(_transpose(eye + u), _transpose(eye - u)))
    except np.linalg.LinAlgError as exc:
        raise BranchAmbiguityError("quasienergy at the folding boundary pi/tau; shrink tau") from exc
    # Rounding leaves the transform an anti-Hermitian part growing like h^2
    # ulps; eigh of its Hermitian part keeps that out of the eigenvalues.
    transform += np.conj(_transpose(transform))
    tangents, vectors = np.linalg.eigh(transform)
    # eps tau = -2 atan(h) falls as h rises: eigh's order reversed is ascending.
    return -2.0 * np.arctan(0.5 * tangents[..., ::-1]), vectors[..., ::-1]


def spectrum(floquet_op, tau):
    """Quasienergy decomposition of a unitary operator or a stack (..., d, d).

    A symmetric X + iY takes eigh(Y) and eps = -atan2(lambda_Y,
    diag(O^T X O))/tau unless O^T X O is not diagonal; that and any other
    unitary take eigh of the Cayley transform (module docstring).  A
    quasienergy within 1e-9 of the zone edge is reported, not folded.
    """
    u = np.asarray(floquet_op)
    if not 0.0 < tau < np.inf:
        raise ValueError(f"kick interval tau must be finite and > 0, got {tau}")
    eigen = _symmetric_eigh(u) if (u == _transpose(u)).all() else None
    angles, vectors = _cayley_eigh(u) if eigen is None else eigen
    largest = np.abs(angles).max()
    if largest >= np.pi - _BRANCH_MARGIN:
        raise BranchAmbiguityError(
            f"quasienergy within {_BRANCH_MARGIN:g} of the folding boundary pi/tau "
            f"(|eps tau| = {largest:.12f}); shrink tau"
        )
    return Spectrum(quasienergies=angles / tau, states=vectors)


def ground_state(spec):
    """Eigenpair with minimal quasienergy of a full-space spectrum.

    Only the parity-sector-route invariant and perfbench's set-up call it.
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
def _frame(n_bosons, xi, tau):
    # Read-only (scales, index, coef, lower) of the adapted frame, even sector
    # first.  scales (2, d, d) take the fold S M S^T to G Q^dagger M Q G: on
    # Q = S^T diag(f), R is d = (+1 on e_0 and the symmetric pairs, -1 on the
    # antisymmetric ones), so E4^{1/2} = cos a +- i sin a R, a = N xi tau / 4,
    # is G = e^{+-i a d}.  Entry i of the parity state [x; +-x reversed] with
    # x = E4^{-1/2} Q y = S^T (f conj(g) y) is the sum over t of
    # coef[s, t, i] y[index[t, i]]: the two terms S^T adds (e_0 as halves).
    # lower masks the triangle that cholesky and eigvalsh read.
    half = n_bosons // 2
    d = np.concatenate([np.ones(half + 1), -np.ones(half)])
    f = np.concatenate([[1.0], np.full(half, np.sqrt(0.5)), np.full(half, 1j * np.sqrt(0.5))])
    g = np.exp(0.25j * n_bosons * xi * tau * np.multiply.outer((1.0, -1.0), d))
    rows, cols = np.conj(f) * g, f * g
    n = np.arange(-half, half + 1)
    pairs = np.stack([abs(n), np.where(n == 0, 0, half + abs(n))])
    coef = np.conj(rows)[:, pairs] * np.where(n == 0, 0.5, np.stack([np.ones(n.size), np.sign(n)]))
    tables = (rows[:, :, None] * cols[:, None, :], np.concatenate([pairs, pairs[:, ::-1]], axis=-1),
              np.concatenate([coef, np.array([1.0, -1.0])[:, None, None] * coef[..., ::-1]], axis=-1),
              np.tri(n.size, dtype=bool))
    for table in tables:
        table.setflags(write=False)
    return tables


def _sector_operators(params, phis):
    # W_+- = E4^{1/2} U_+- E4^{-1/2} on the adapted basis, stacked
    # (k, 2, d, d) with one pair per flux of phis, row 0 even.
    # U_+- = M g_+-^2, M = D_L K D_R (E1 E2 E3 on the left-leg rows), so
    # W_+- = G Q^dagger M Q G, symmetric as M^T = R M R, to rounding.
    kick, e1_left, e1_right, _, _ = _kick_factors(params, np.asarray(phis)[:, None])
    folded = _transpose(_fold(_transpose(_fold(e1_left[..., :, None] * kick * e1_right[..., None, :]))))
    return folded[..., None, :, :] * _frame(params.n, params.xi, params.tau)[0]


def _lower_mirror(a, params):
    # The symmetric matrices (..., d, d) with the lower triangle of a.
    return np.where(_frame(params.n, params.xi, params.tau)[3], a, _transpose(a))


def _parity_columns(vectors, sectors, params, legs):
    # The parity states [x; +-x reversed] (..., 2d, m) of adapted-basis
    # columns y (..., d, m) of the given sectors (_frame); x alone at legs=1.
    _, index, coef, _ = _frame(params.n, params.xi, params.tau)
    stop = legs * vectors.shape[-2]
    terms = coef[sectors][..., :stop, None] * vectors[..., index[:, :stop], :]
    return terms[..., 0, :, :] + terms[..., 1, :, :]


def sector_spectra(params):
    """Both parity sectors' spectra of U_F, stacked with row 0 even.

    Column j of states[s] is the rung-basis half x of the eigenstate
    [x; +-x reversed]/sqrt(2), + in the even sector.  A branch ambiguity
    names the point: "at mu=..., phi=...: " leads spectrum's message.
    """
    try:
        spec = spectrum(_lower_mirror(_sector_operators(params, [params.phi])[0], params), params.tau)
    except BranchAmbiguityError as exc:
        raise BranchAmbiguityError(f"at mu={params.mu}, phi={params.phi}: {exc}") from exc
    return Spectrum(quasienergies=spec.quasienergies, states=_parity_columns(spec.states, [0, 1], params, 1))


def _lower_sector(minima):
    # The sector of the ground state from the sector minima (..., 2): the
    # lower minimum, even on a tie.
    return np.where(minima[..., 0] <= minima[..., 1] + DEGENERACY_TOL, 0, 1)


def sector_ground(spec):
    """(eps0, state, sector) of U_F from sector_spectra or its first columns.

    The lower sector minimum wins, the even sector (0) on a tie within
    DEGENERACY_TOL; state = [x; +-x reversed] has unit norm to one ulp.
    """
    minima = spec.quasienergies[:, 0]
    sector = int(_lower_sector(minima))
    x = spec.states[sector, :, 0]
    return minima.min(), _unit_rows(np.concatenate([x, (1 - 2 * sector) * x[::-1]])), sector


def _unit_rows(rows):
    # Each row along the last axis divided in place by its norm, summed
    # part by part as np.linalg.norm sums one row, bit for bit.
    parts = (rows.real, rows.imag) if np.iscomplexobj(rows) else (rows,)
    rows /= np.sqrt(sum(part[..., None, :] @ part[..., :, None] for part in parts))[..., 0]
    return rows


def _certified_grounds(params, phis):
    # (eps0s, states, certified) at the fluxes phis: sector_ground's
    # quasienergy and state, and whether the certificate held; rows not
    # certified hold no answer.  cholesky, eigvalsh, the LU and the residual
    # all see _lower_mirror(W).  A stack whose factorizations fail anywhere
    # is solved again as two halves, down to the fluxes that fail.
    w = _sector_operators(params, phis)
    size = w.shape[-1]
    eye = np.eye(size)
    try:
        np.linalg.cholesky(w.real - _COS_FLOOR * eye)
        tops = np.linalg.eigvalsh(w.imag)[..., -1]
        eps = -np.arcsin(tops) / params.tau
        sectors = _lower_sector(eps)
        points = np.arange(sectors.size)
        shifted = _lower_mirror(w.imag[points, sectors], params)
        shifted -= tops[points, sectors][:, None, None] * eye
        # Two steps of inverse iteration from a start vector with no lattice
        # symmetry; an overflow fails the residual check below.
        start = np.cos(np.arange(size))[None, :, None]
        vectors = np.linalg.solve(shifted, np.linalg.solve(shifted, start))
    except np.linalg.LinAlgError:
        if len(phis) == 1:
            return np.full(1, np.nan), np.zeros((1, 2 * size), dtype=complex), np.zeros(1, bool)
        halves = [_certified_grounds(params, half) for half in np.array_split(phis, 2)]
        return tuple(np.concatenate(part) for part in zip(*halves))
    _unit_rows(vectors[..., 0])
    certified = np.abs(shifted @ vectors).max(axis=(-2, -1)) <= _RESIDUAL_LIMIT
    states = _parity_columns(vectors, sectors, params, 2)[..., 0]
    return eps.min(axis=-1), _unit_rows(states), certified


def solve_grounds(params, phis):
    """Ground quasienergies (k,) and states (k, 2(N+1)) of U_F at fluxes phis.

    Every parameter but the flux comes from params (params.phi is not
    used).  The fluxes are solved as stacks of at most _STACK_BYTES per
    sector-operator array; each point is ground-only where the Cholesky
    certificate holds, else from both full sector spectra (module
    docstring), and each equals solve_ground at that flux bit for bit.
    A branch ambiguity names the failing flux (sector_spectra).
    """
    phis = np.asarray(phis, dtype=float).reshape(-1)
    if not np.isfinite(phis).all():
        raise ValueError(f"phi must be finite, got {phis}")
    size = dim_bec(params.n)
    chunk = max(1, _STACK_BYTES // (32 * size * size))
    eps0s, states = np.empty(phis.size), np.empty((phis.size, 2 * size), dtype=complex)
    for first in range(0, phis.size, chunk):
        stack = slice(first, first + chunk)
        eps0s[stack], states[stack], certified = _certified_grounds(params, phis[stack])
        for i in first + np.flatnonzero(~certified):
            eps0s[i], states[i], _ = sector_ground(sector_spectra(replace(params, phi=float(phis[i]))))
    return eps0s, states


def solve_ground(params):
    """Ground quasienergy and state of U_F, solved in its parity sectors.

    The one-flux case of solve_grounds: ground-only where the Cholesky
    certificate holds, else from both full sector spectra (module
    docstring); either way every quasienergy of U_F is clear of the zone
    edge, and the state is sector_ground's.
    """
    eps0s, states = solve_grounds(params, [params.phi])
    return eps0s[0], states[0]
