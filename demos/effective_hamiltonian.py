"""How faithfully the kicked evolution realizes the flux ladder.

The four-kick cycle U_F agrees with exp(-i H_eff tau) to second order
in tau.  This script measures the defect norm as tau shrinks (each
halving should cut it by ~4), compares ground states of both routes,
and shows the quasienergy folding hazard: at large interaction the
spectrum spreads toward the zone edge, and past it the branch
assignment is refused rather than silently wrong.
"""

import numpy as np

from fockladder import (
    BranchAmbiguityError,
    SystemParams,
    build_floquet,
    build_heff,
    solve_ground,
    spectrum,
)


def defect(params):
    u = build_floquet(params)
    # exp(-i H_eff tau) from the eigendecomposition of the Hermitian H_eff.
    w, v = np.linalg.eigh(build_heff(params))
    return np.linalg.norm(u - (v * np.exp(-1j * params.tau * w)) @ v.conj().T, 2)


def main():
    print("defect ||U_F - exp(-i H_eff tau)|| at N=20, mu=0.5, xi=0.5, phi=1.0")
    previous = None
    for tau in (0.04, 0.02, 0.01, 0.005, 0.0025):
        params = SystemParams(n=20, mu=0.5, xi=0.5, phi=1.0, tau=tau)
        value = defect(params)
        note = f"  ({previous / value:.2f}x smaller)" if previous else ""
        print(f"  tau = {tau:<7} defect = {value:.3e}{note}")
        previous = value

    params = SystemParams(n=20, mu=0.5, xi=0.5, phi=0.5)
    _, kicked = solve_ground(params)
    h = build_heff(params)
    _, vectors = np.linalg.eigh(h)
    fidelity = np.abs(np.vdot(vectors[:, 0], kicked)) ** 2
    print()
    print(f"ground-state fidelity between the two routes: 1 - {1.0 - fidelity:.1e}")

    print()
    print("zone occupancy |eps| tau / pi as the interaction grows (N=40):")
    for mu in (0.0, 5.0, 20.0, 60.0):
        params = SystemParams(n=40, mu=mu, xi=0.5, phi=0.6)
        try:
            spec = spectrum(build_floquet(params), params.tau)
            frac = np.abs(spec.quasienergies * params.tau).max() / np.pi
            print(f"  mu = {mu:5.1f}: {frac:.3f} of the zone")
        except BranchAmbiguityError as exc:
            print(f"  mu = {mu:5.1f}: refused ({exc})")


if __name__ == "__main__":
    main()
