"""Gauss-Weierstrass kernel calculus verified by certified quadrature.

The library evaluates the Gauss/Weierstrass kernel pair on real and
complex points, computes Fourier and inverse Fourier integrals by
certified tensor-grid quadrature, regularizes inversion with Gauss
summability, smooths functions and bounded measures by Weierstrass
convolution, and checks every identity numerically at desk scale.
"""

# set before the submodule imports: experiments reads it for its exports
__version__ = "0.1.0"

from .experiments import (
    EXPERIMENTS,
    ExperimentSpec,
    ResultTable,
    export,
    run,
)
from .catalog import (
    bump_fn,
    bump_pair_fn,
    constant_fn,
    gauss_fn,
    parse_preset,
    unit_gaussian,
    weierstrass_fn,
    zero_fn,
)
from .kernels import KernelScale, gauss, weierstrass, weierstrass_peak
from .measures import (
    Atom,
    BoundedMeasure,
    WeakConvergenceSample,
    dirac,
    from_density,
    measure_from_json,
    weak_convergence_trace,
)
from .points import dot, modulus
from .quadrature import (
    BoundedOnly,
    CompactSupport,
    GaussianDecay,
    GridSpec,
    PolynomialDecay,
    QuadratureError,
    QuadratureResult,
    TestFunction,
    integrate,
    integrate_auto,
    l1_norm,
    node_budget,
)
from .transforms import (
    FrequencySample,
    L1ContractionReport,
    MultiplicationReport,
    fourier,
    fourier_complex,
    fourier_profile,
    gauss_inversion,
    gauss_inversion_ladder,
    gauss_mean,
    mollify,
    mollify_l1_check,
    modulate,
    multiplication_formula_check,
)
