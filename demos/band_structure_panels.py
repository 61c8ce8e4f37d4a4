"""Mean-field bands and exact phase densities below, at and above phi_c.

Builds the three standard panels (fluxes phi_c/2, phi_c, 3 phi_c/2) and
prints what a plot of each would show: the lower band develops a double
well as the flux crosses phi_c, the exact ground state's phase density
follows the band minimum, and in the vortex phase the rung density
grows interior holes where the wavefunction phase winds.
"""

import numpy as np

from fockladder import band_panels, critical_flux

N_BOSONS = 60
XI = 0.5


def local_maxima(values, floor_fraction=0.05):
    floor = floor_fraction * values.max()
    return [
        k
        for k in range(1, values.size - 1)
        if values[k] > values[k - 1] and values[k] >= values[k + 1] and values[k] >= floor
    ]


def density_holes(density):
    cap = 0.1 * density.max()
    return [
        k
        for k in range(1, density.size - 1)
        if density[k] < density[k - 1] and density[k] < density[k + 1] and density[k] < cap
    ]


def sparkline(values, width=61):
    # coarse ASCII strip of a nonnegative curve
    marks = " .:-=+*#%@"
    resampled = np.interp(
        np.linspace(0, values.size - 1, width), np.arange(values.size), values
    )
    scaled = resampled / resampled.max()
    return "".join(marks[int(v * (len(marks) - 1))] for v in scaled)


def main():
    phi_c = critical_flux(XI)
    panels = band_panels(N_BOSONS, XI)
    labels = ("phi_c/2", "phi_c", "3 phi_c/2")

    print(f"N = {N_BOSONS}, xi = {XI}, phi_c = {phi_c:.4f} rad")
    for label, panel in zip(labels, panels):
        print()
        print(f"panel at flux {panel.flux:.4f} ({label})")
        k_min = int(np.argmin(panel.e_lower))
        print(
            f"  lower band: min {panel.e_lower.min():8.3f} at "
            f"theta = {panel.thetas[k_min]:+.3f}, "
            f"gap to upper band {panel.e_upper.min() - panel.e_lower.min():.3f}"
        )

        ground_profile = panel.density[0, 0, :] + panel.density[1, 0, :]
        peaks = local_maxima(ground_profile)
        peak_list = ", ".join(f"{panel.thetas[k]:+.3f}" for k in peaks)
        print(f"  ground-state phase density maxima at theta = {peak_list}")
        print(f"  phase density |{sparkline(ground_profile)}|")

        rung_density = panel.ground_density.sum(axis=0)
        holes = density_holes(rung_density)
        print(
            f"  rung density: width (rms n) = "
            f"{np.sqrt((rung_density * np.arange(-N_BOSONS // 2, N_BOSONS // 2 + 1) ** 2).sum()):.2f}, "
            f"{len(holes)} interior holes below 10% of the peak"
        )
        print(f"  rung density  |{sparkline(rung_density)}|")


if __name__ == "__main__":
    main()
