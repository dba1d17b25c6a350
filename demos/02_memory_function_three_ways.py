"""One memory function, three independent numerical routes.

For a grey-Brownian-motion kernel the function Phi(t, lam) behind the
time-change law is simultaneously a power series with quadrature-built
coefficients, a closed-form Mittag-Leffler expression, and the solution
of a weakly singular Volterra equation.  The three routes share no code
beyond the kernel itself, so their agreement is a strong correctness
check -- it is also acceptance criterion 2 of the validation matrix.
"""

import numpy as np

from subfrac import ClosedFormPhi, GGBMKernel, MSMKernel, SeriesPhi, VolterraPhi
from subfrac.kernels import phi_coefficients

for kernel, label in (
    (GGBMKernel(0.8, 0.6), "grey-BM kernel (0.8, 0.6)"),
    (MSMKernel(a=2.0, b=1.0, mu=0.5, nu=2.0), "Appell-family kernel (2, 1, 0.5, 2)"),
):
    series = SeriesPhi(kernel)
    closed = ClosedFormPhi(kernel)
    volterra = VolterraPhi(kernel, horizon=1.0, n_steps=2048)
    print(f"\n{label}")
    print(f"{'t':>5} {'lam':>5} {'series':>16} {'closed':>16} {'volterra':>16}")
    for t in (0.25, 1.0):
        for lam in (1.0, 5.0):
            s = series.value(t, -lam)
            c = closed.value(t, -lam)
            v = volterra.value(t, -lam)
            print(f"{t:5.2f} {lam:5.1f} {s:16.12f} {c:16.12f} {v:16.12f}")

print("\nseries coefficients of the power kernel match the Beta-integral identity")
from math import gamma

k = GGBMKernel(0.5, 0.5)  # reduces to the classical power kernel
c = phi_coefficients(k, 1.3, 6)
exact = [1.3 ** (0.5 * n) / gamma(0.5 * n + 1.0) for n in range(7)]
for n, (a, b) in enumerate(zip(c, exact)):
    print(f"  c_{n}(1.3): quadrature {a:.12f}  exact {b:.12f}")

print("\nhomogeneous scaling: Phi(t, -lam) = Phi(1, -lam t^theta)")
sp = SeriesPhi(GGBMKernel(0.8, 0.6), use_homogeneous=False, horizon=1.5)
rng = np.random.default_rng(0)
worst = max(
    abs(sp.value(t, -lam) - sp.value(1.0, -lam * t**0.8))
    for t, lam in zip(rng.uniform(0.05, 1.0, 25), rng.uniform(0.0, 3.0, 25))
)
print(f"  worst deviation over 25 random points: {worst:.2e}")
