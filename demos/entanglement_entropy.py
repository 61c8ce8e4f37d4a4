"""Impurity entanglement entropy as a probe of the vortex transition.

In the Meissner phase the impurity follows the condensate rigidly and
the entropy is near zero; past phi_c the ground state superposes the
two vortex wells and the impurity ends up in a mixed state.  The exact
finite-N entropy follows the closed-form curve except in a narrow
window around phi_c, where finite-size rounding dominates.
"""

import numpy as np

from fockladder import DEFAULT_PHI_GRID, critical_flux, scan_flux

N_BOSONS = 100
XI = 0.5


def main():
    phi_c = critical_flux(XI)
    records = scan_flux(N_BOSONS, 0.0, XI, phi_grid=DEFAULT_PHI_GRID[1:])

    print(f"N = {N_BOSONS}, xi = {XI}, mu = 0, phi_c = {phi_c:.4f}")
    print()
    print(f"{'phi':>8} {'numeric':>9} {'analytic':>9} {'gap':>8}")
    for record in records[::12]:
        gap = record.entropy_numeric - record.entropy_analytic
        print(
            f"{record.params.phi:8.4f} {record.entropy_numeric:9.5f} "
            f"{record.entropy_analytic:9.5f} {gap:+8.5f}"
        )

    gaps = np.array([abs(r.entropy_numeric - r.entropy_analytic) for r in records])
    fluxes = np.array([r.params.phi for r in records])
    worst = int(np.argmax(gaps))
    outside = np.abs(fluxes - phi_c) > 0.1
    print()
    print(
        f"largest numeric-analytic gap {gaps[worst]:.4f} at "
        f"phi = {fluxes[worst]:.4f} (phi_c = {phi_c:.4f})"
    )
    print(f"largest gap away from the transition: {gaps[outside].max():.4f}")
    print(f"entropy cap ln 2 = {np.log(2.0):.4f} nats")


if __name__ == "__main__":
    main()
