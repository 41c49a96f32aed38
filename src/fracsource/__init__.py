"""Forward and inverse source solvers for a multi-term time-fractional
fourth-order parabolic equation with nonlocal boundary conditions.

The package is organized around an explicit spectral construction: a
biorthogonal eigenfunction expansion in space reduces the equation to a
family of multi-term fractional ODEs whose solutions are multinomial
Mittag-Leffler relaxation kernels, and the inverse source problem (recover
the time amplitude a(t) from the spatial mean of the solution) collapses to
a second-kind Volterra equation solved per time node.  A finite-difference
oracle validates the whole construction on coarse grids.
"""

__version__ = "0.1.0"

from .catalog import SpaceTimeField, UnknownCatalogName, make_field, make_time_fn
from .forward import (
    ProblemData,
    SolutionBundle,
    mode_kernel_spec,
    ode_residual,
    solve_forward,
)
from .fractional import (
    FractionalOperatorSpec,
    GridTooCoarse,
    InvalidOrder,
    InvalidSpec,
    KernelMoments,
    QuadratureFailure,
    TimeGrid,
    TimeSeries,
    caputo_multiterm,
    rl_integral,
    singular_convolve,
)
from .inverse import (
    CompatibilityViolation,
    EnergyDatum,
    MeanTooSmall,
    SourceAmplitude,
    StabilityReport,
    recover_source,
    solve_inverse,
    stability_probe,
)
from .mlf import (
    ContourFailure,
    InvalidParameters,
    MLParameters,
    NonConvergence,
    RelaxationKernelSpec,
    eval_kernel,
    eval_kernel_grid,
    kernel_antiderivative,
    ml_series,
)
from .oracle import (
    ErrorReport,
    FDGrid,
    FieldHistory,
    SingularSystem,
    StepRejected,
    compare,
    fdm_forward,
)
from .spectral import (
    DatumKind,
    DecayReport,
    Family,
    Field2D,
    InsufficientData,
    MissingCoefficient,
    ModeIndex,
    SpectralCoefficients,
    biorthogonality_matrix,
    decay_report,
    eigen,
    enumerate_modes,
    eval_W,
    eval_Z,
    mode_mean,
    project,
    project_modes,
    synthesize,
)

__all__ = [name for name in dir() if not name.startswith("_")]
