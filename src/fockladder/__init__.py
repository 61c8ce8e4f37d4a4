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

The package exports exactly the names in each layer module's __all__,
from lattice through validation; the front end is fockladder.cli.
"""

from .lattice import *
from .floquet import *
from .meanfield import *
from .observables import *
from .experiments import *
from .validation import *

__version__ = "0.1.0"
