"""Locating the attraction that maximizes the peak chiral current.

For each boson-boson interaction mu, the chiral current is maximized
over flux; that peak is largest at an interaction mu_max(N) that
approaches the critical attraction mu_c as N grows, which is the
numerical signature that the junction's self-trapping transition and
the ladder's Meissner-vortex transition coincide.  Uses reduced grids
and small sizes so the demo finishes in seconds; the full-scale run is
`fockladder fss` at defaults.
"""

import numpy as np

from fockladder import finite_size_extrapolation, mu_critical

XI = 0.5
SIZES = (12, 16, 20, 24)


def main():
    target = mu_critical(XI)
    fit, mu_maxes = finite_size_extrapolation(
        ns=SIZES,
        xi=XI,
        mu_grid=np.linspace(-0.6, -0.2, 21),
        phi_grid=np.linspace(0.0, np.pi / 2.0, 41),
    )

    print(f"xi = {XI}, mu_c = {target:.6f}")
    print()
    print(f"{'N':>4} {'mu_max':>12} {'|mu_max - mu_c|':>16}")
    for n_bosons, mu_max in zip(SIZES, mu_maxes):
        print(f"{n_bosons:4d} {mu_max:12.6f} {abs(mu_max - target):16.6f}")
    print()
    print(
        f"linear fit in 1/N: difference -> {fit.intercept:+.2e} at 1/N = 0 "
        f"(slope {fit.slope:.3f}, r^2 = {fit.r_squared:.4f})"
    )
    print("the residual shrinks further with larger N and a smaller kick interval")


if __name__ == "__main__":
    main()
