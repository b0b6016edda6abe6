"""Certificate, both solution branches, and the sphere probes behind them.

The forcing is a bump sized so that b |u0|^(p-1) lands at half the
critical constant.  That buys three radii; inside them live a minimal
solution (monotone iteration) and a second, larger one (deflated Newton).
"""

import numpy as np

from bifrac import (
    GridFunction,
    KernelParams,
    apply_green,
    certify,
    critical_constant,
    krasnoselskii_probe,
    make_grid,
    newton_second,
    operator_norm_b,
    picard_minimal,
    residual_strong,
)


def main():
    kp = KernelParams(alpha=1.5)
    p = 2.0
    grid = make_grid(65)

    bump = GridFunction.from_callable(grid, lambda x: 1 - x**2)
    amp = critical_constant(p) / (2 * operator_norm_b(kp, p) * apply_green(bump, kp).sup_norm)
    h = bump.with_values(amp * bump.values)

    rep = certify(h, p, kp)
    print(f"certificate: b u0^(p-1) = {rep.lhs:.6f} vs c_p = {rep.c_p}, margin {rep.margin:.0%}")
    r = rep.radii
    print(f"radii: rho1 = {r.rho1:.6f}, rho2 = {r.rho2:.6f}, rho3 = {r.rho3:.4f}")

    low = picard_minimal(rep)
    high = newton_second(rep, low.u)
    residual_strong([low, high], rep)
    for res in (low, high):
        print(
            f"{res.branch:8s} sup = {res.u.sup_norm:.6f}  fixed-point residual {res.fixed_point_residual:.1e}"
            f"  strong residual {res.strong_residual:.1e}  in cone: {res.in_cone}"
        )
    sep = float(np.abs(high.u.values - low.u.values).max())
    print(f"separation {sep:.4f} > rho2 - rho1 = {r.rho2 - r.rho1:.4f}")

    print("\nsphere probes (200 random cone members each):")
    for rho, side in ((r.rho1, "expects min |T| above"), (r.rho2, "expects max |T| below")):
        pr = krasnoselskii_probe(rho, rep, count=200, seed=7)
        print(f"  rho = {rho:.4f}: min {pr.min_T:.4f}, max {pr.max_T:.4f}  ({side} {rho:.4f})")


if __name__ == "__main__":
    main()
