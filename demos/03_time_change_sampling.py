"""Sampling the random time changes and checking their transforms.

Every sampler here is validated against the Laplace transform that
defines it: the one-sided stable subordinator against exp(-lam^gamma),
the mixing amplitude against the Mittag-Leffler function, and the
inverse subordinator, drawn from its exact CDF and by simulated first
passage, against the Mittag-Leffler function and the double-Laplace
identity h(sigma) / (sigma (h(sigma) + lam)).
"""

import math

import numpy as np

from subfrac import BernsteinSpec, mittag_leffler
from subfrac.oracle import double_laplace_identity
from subfrac.phi import inverse_subordinator_cdf
from subfrac.sampling import (
    SUB_MIXING,
    _passage_scale,
    first_passage,
    mixing_from_uniforms,
    path_uniforms,
    stable_onesided_from_uniforms,
)

SEED = 7
N = 40_000
u = path_uniforms(SEED, 0, N, 2)

print("one-sided stable subordinator: empirical Laplace transform")
for gamma in (0.4, 0.7):
    draws = stable_onesided_from_uniforms(u[:, 0], u[:, 1], gamma)
    for lam in (0.5, 2.0):
        emp = np.mean(np.exp(-lam * draws))
        se = np.std(np.exp(-lam * draws)) / math.sqrt(N)
        print(f"  gamma={gamma}, lam={lam}: {emp:.5f} vs exp(-lam^gamma) = "
              f"{math.exp(-(lam**gamma)):.5f}  ({se:.1e} se)")

print("\nmixing amplitude: transform is the Mittag-Leffler function")
for beta in (0.5, 0.8):
    a = mixing_from_uniforms(u[:, 0], u[:, 1], beta)
    emp = np.mean(np.exp(-a))
    print(f"  beta={beta}: E[e^-A] = {emp:.5f} vs E_beta(-1) = "
          f"{mittag_leffler(beta, -1.0):.5f}")

print("\ninverse subordinator E_1 (h(lam) = lam^0.5), 4000 draws each way")
bern = BernsteinSpec.stable_power(0.5)
exact = inverse_subordinator_cdf(bern, 1.0).quantile(path_uniforms(SEED, SUB_MIXING, 4000, 1)[:, 0])
passages = first_passage(bern, [1.0], 4000, SEED, _passage_scale(bern, 1.0) / 2**10)[:, 0]
print(f"  E[e^-E_1] = {np.mean(np.exp(-exact)):.5f} (exact CDF), "
      f"{np.mean(np.exp(-passages)):.5f} (first passage) vs E_(1/2)(-1) = "
      f"{mittag_leffler(0.5, -1.0):.5f}")

print("\ndouble-Laplace identity with Monte Carlo on the left side")
for sigma, lam in ((1.0, 1.0), (2.0, 0.5)):
    rep = double_laplace_identity(bern, sigma, lam, 4000, master_seed=SEED)
    print(f"  sigma={sigma}, lam={lam}: MC {rep.lhs_monte_carlo:.5f} vs "
          f"closed {rep.rhs_closed_form:.5f}  ({rep.rel_deviation:+.2%})")
