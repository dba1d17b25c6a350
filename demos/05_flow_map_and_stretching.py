"""State-dependent diffusion through the flow map, and time stretching.

A diffusion with coefficient sigma driven in the Stratonovich sense is a
deterministic function of its driving path: the flow g solving
dg/dy = sigma(g).  That gives two exact estimator forms for the same
solution value -- one carrying the drift inside the flow argument, one
removing it by a Gaussian change of variables -- and their agreement is a
sharp self-test.  Time stretching maps solutions of one memory kernel to
another: v(tau) = u(g(tau)) solves the equation with the stretched kernel.
"""

import numpy as np

from subfrac import (
    BrownianDrift,
    ConstantPotential,
    DossSussmann,
    FKProblem,
    GaussianBump,
    GGBMKernel,
    ProcessModel,
    StretchFn,
    ZeroPotential,
    flow_map,
    solve,
    solve_doss_sussmann,
    stretch_solution,
)

print("the flow map: fourth-order accurate, exact for constant coefficients")
print(f"  constant sigma: g(1.3, 0.4) = {flow_map(lambda z: 2.5, [1.3], 0.4)[0]:.12f}"
      f"  (exact {0.4 + 2.5 * 1.3})")
# sigma = 2 + sin z separates in u = tan(z/2): tan(g/2) = (sqrt(3) tan W - 1)/2
# with W = y sqrt(3)/2 + arctan((2 tan(x/2) + 1)/sqrt(3)), here at x = 0
exact = 2.0 * np.arctan((np.sqrt(3.0) * np.tan(np.sqrt(3.0) / 2.0 + np.pi / 6.0) - 1.0) / 2.0)
print(f"  sigma = 2 + sin:  g(1, 0) = {flow_map(lambda z: 2.0 + np.sin(z), [1.0], 0.0)[0]:.12f}"
      f"  (exact {exact:.12f})")

prob = FKProblem(
    kernel=GGBMKernel(0.8, 0.6),
    process=ProcessModel(base=DossSussmann(sigma=lambda z: 2.0 + np.sin(z), w=0.5)),
    potential=ConstantPotential(-0.1),
    u0=GaussianBump(0.0, 1.0),
    eval_points=((1.0, 0.0),),
)
res = solve_doss_sussmann(prob, 60_000, 23)[0]
print("\nboth estimator forms from the same draws (sigma = 2 + sin, w = 0.5, c = -0.1)")
print(f"  drift inside the flow: {res.with_drift.mean:.5f} +- {res.with_drift.stderr:.5f}")
print(f"  drift removed:         {res.drift_removed.mean:.5f} +- {res.drift_removed.stderr:.5f}")
print(f"  difference {res.difference:+.5f} vs joint se {res.joint_stderr:.5f}")

print("\ntime stretching: v(tau) = u(g(tau)) with g(tau) = tau^2")
base = FKProblem(
    kernel=GGBMKernel(0.8, 0.6),
    process=ProcessModel(base=BrownianDrift(0.0)),
    potential=ZeroPotential(),
    u0=GaussianBump(0.0, 1.0),
    eval_points=((0.25, 0.0),),
)
stretch = StretchFn(g=lambda s: s * s, g_dot=lambda s: 2.0 * s, power=2.0)
stretched = stretch_solution(
    FKProblem(
        kernel=base.kernel,
        process=base.process,
        potential=base.potential,
        u0=base.u0,
        eval_points=((0.5, 0.0),),
    ),
    stretch,
)
a = solve(base, 20_000, 5)[0]
b = solve(stretched, 20_000, 5)[0]
print(f"  base at t = 0.25:      {a.mean:.6f}")
print(f"  stretched at tau = 0.5: {b.mean:.6f}   (identical draws, identical value)")
print(f"  stretched kernel is homogeneous of degree {stretched.kernel.theta} - 1")
