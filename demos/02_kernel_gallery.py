"""A tour of the interval kernels: Green function, similarity variable, Poisson.

Run from the repository root:  python3 demos/02_kernel_gallery.py
"""

import numpy as np

from bifrac import KernelParams, green_ball, poisson_ball, poisson_total_mass, w_factor


def main():
    kp = KernelParams(alpha=1.5)

    print("Green function on (-1,1), alpha = 1.5")
    for x, y in ((0.0, 0.5), (0.3, 0.3), (-0.9, 0.85), (0.0, 1.2)):
        g = float(green_ball(x, y, kp))
        w = float(w_factor(x, y))
        print(f"  G({x:5.2f},{y:5.2f}) = {g:.12f}   (w = {w:.4g})")
    print("  outside the interval the kernel is exactly zero, not merely small")

    # the diagonal is finite for alpha > 1 and grows toward the center
    xs = np.array([0.0, 0.3, 0.6, 0.9])
    diag = green_ball(xs, xs, kp)
    print("\ndiagonal values G(x,x):", np.array2string(diag, precision=6))

    # low order: the diagonal diverges, off-diagonal values stay finite
    kp_low = KernelParams(alpha=0.8)
    print(f"\nalpha = 0.8: G(0.2, 0.2) = {float(green_ball(0.2, 0.2, kp_low))}")
    print(f"             G(0.2, 0.5) = {float(green_ball(0.2, 0.5, kp_low)):.12f}")

    print("\nPoisson kernel mass (must integrate to 1 over the exterior):")
    for alpha in (1.2, 1.5, 1.8):
        m = poisson_total_mass(0.35, 1.0, KernelParams(alpha=alpha))
        print(f"  alpha = {alpha}: {m:.12f}")
    sample = float(poisson_ball(0.0, 1.5, 1.0, kp))
    print(f"\npointwise value P(0, 1.5) at alpha 1.5: {sample:.12f}")


if __name__ == "__main__":
    main()
