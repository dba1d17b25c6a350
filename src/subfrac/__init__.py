"""Monte Carlo and deterministic solvers for memory-kernel evolution equations.

The package solves equations of the form

    u(t) = u0 + int_0^t k(t,s) L u(s) ds

by averaging the classical semigroup of L over a kernel-determined family
of nonnegative random time changes, with independent deterministic oracles
(series, Volterra, quadrature, spectral, finite differences) used for
cross-validation of every stochastic estimator.

Module map:

* ``specfun``  Mittag-Leffler family, Wright density, Appell F3
* ``kernels``  memory-kernel families, series coefficients
* ``phi``      the memory function three ways + Laplace-inversion CDFs
* ``sampling`` seeded streams; one array sampler per random variable and
               per kind of path (``n_paths=1, start=i`` draws path i)
* ``fk``       the Monte Carlo solvers (time change, potential, flow map)
* ``oracle``   deterministic reference solutions
* ``validate`` the acceptance matrix behind ``subfrac validate``
"""

from .fk import (
    BrownianDrift,
    CallablePotential,
    ConstantPotential,
    DossSussmann,
    Estimate,
    FKProblem,
    GaussianBump,
    ProcessModel,
    StableLevy,
    ZeroPotential,
    flow_map,
    solve,
    solve_doss_sussmann,
    stretch_solution,
)
from .kernels import (
    ConvMultinomialMLKernel,
    ConvPowerSumKernel,
    CustomKernel,
    FractionalPowerKernel,
    GGBMKernel,
    MSMKernel,
    StretchFn,
    TimeStretchedKernel,
    make_kernel,
    phi_coefficients,
)
from .phi import (
    ClosedFormPhi,
    SeriesPhi,
    VolterraPhi,
    check_complete_monotone,
    time_law_cdf,
)
from .sampling import BernsteinSpec, PathGrid
from .specfun import (
    MLParams,
    MultinomialMLParams,
    appell_f3,
    mittag_leffler,
    multinomial_ml,
    mwright_density,
    prabhakar,
)

__version__ = "0.1.0"
