"""Fock-state ladder simulations of a driven bosonic junction with an impurity.

The package has four layers plus plumbing:

- lattice: spin operators and the parity reflection on the two-leg
  ladder of number-difference states.
- floquet: the one-period evolution operator, the effective
  Hamiltonian it approximates and quasienergy spectra.
- meanfield: closed forms for the bands, critical flux, chiral
  current, critical attraction and entanglement entropy.
- observables: numeric densities, currents, entropies of eigenstates.
- experiments: grid scans pairing numerics with the closed forms.
- validation, cli: the invariant suite and the command-line front end.
"""

from .lattice import (
    SIGMA_X,
    SIGMA_Z,
    build_sx,
    build_sy,
    build_sz,
    dim_bec,
    parity_operator,
    rung_values,
)
from .floquet import (
    BranchAmbiguityError,
    Spectrum,
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
from .meanfield import (
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
from .observables import (
    FockMap,
    chiral_current_normalized,
    chiral_current_numeric,
    entanglement_entropy_numeric,
    fock_density_phase,
    phase_energy_density,
    phase_grid,
    rung_second_moment,
)
from .experiments import (
    DEFAULT_MU_GRID,
    DEFAULT_NS,
    DEFAULT_PHI_GRID,
    BandPanel,
    FitResult,
    ScanRecord,
    analytic_pair,
    band_panels,
    default_fluxes,
    find_mu_max,
    finite_size_extrapolation,
    fit_inverse_size,
    interaction_scan,
    scan_flux,
)
from .validation import CheckResult, run_invariant_suite

__version__ = "0.1.0"
