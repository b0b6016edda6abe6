"""Scaling the forcing until the two branches merge and vanish.

u = G(u^p) + lambda G(h).  Small lambda: two solutions.  Large lambda:
none.  The sweep counts branches on a grid, then locates the fold inside
the last two-branch bracket by one Newton solve of the Moore-Spence
system (solution, null vector and lambda together).  In scalar mode the
fold has a closed form, which makes a good self-test before trusting the
full run.
"""

from bifrac import (
    GridFunction,
    KernelParams,
    apply_green,
    critical_constant,
    fold_sweep,
    make_grid,
    operator_norm_b,
)

kp = KernelParams(alpha=1.5)
grid = make_grid(65)
bump = GridFunction.from_callable(grid, lambda x: 1 - x**2)
# size the base forcing at half the certificate threshold, so the
# certified range ends at lambda = 2 and the fold sits somewhere past it
amp = critical_constant(2.0) / (2 * operator_norm_b(kp, 2.0) * apply_green(bump, kp).sup_norm)
bump = bump.with_values(amp * bump.values)

for scalar in (True, False):
    label = "scalar model" if scalar else "full problem"
    sw = fold_sweep(bump, 2.0, kp, lambda_lo=0.5, lambda_hi=6.0, steps=9, scalar_model=scalar)
    print(f"{label}:")
    for pt in sw.points:
        bars = "#" * (10 * pt.n_found // 2)
        print(f"  lambda = {pt.lam:5.3f}  branches = {pt.n_found}  {bars}")
    print(f"  certificate holds up to lambda = {sw.lambda_cert:.6f}")
    print(f"  fold located at        lambda = {sw.fold_estimate:.6f}")
    print(f"  sufficiency gap: {sw.fold_estimate / sw.lambda_cert:.3f}x\n")
