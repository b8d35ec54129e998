"""Numerical laboratory for the segregation system Δu = κ u v², Δv = κ v u².

The package builds discrete stand-ins for entire solutions of the
system (the 1D profile, its planar extensions, solved boundary-value
pairs) and measures the quantities that control their geometry:
Almgren-type frequency, doubling of the shell average, the two-factor
monotonicity functional, spherical rearrangement and constrained
minimization on S^{n-1}, blow-down flatness, and harmonic-replacement
deficits.
"""

from .blowdown import BlowdownRecord, compute_L, direction_convergence, rescale
from .config import SolveConfig
from .diagnostics import (
    DoublingCheck,
    FlatnessFit,
    MonotonicityTrace,
    ProductBounds,
    acf_J,
    acf_trace_and_fit,
    almgren_H,
    almgren_N,
    check_doubling,
    cone_monotonicity,
    correction_constant,
    eps_mono,
    flatness_direction,
    frequency_trace,
    functional_trace,
    gradient_bounds,
    harmonic_deficit,
    nondegeneracy_exponent,
    product_bounds,
)
from .elliptic2d import SolutionPair, solve_linear_decay, solve_system
from .grid import (
    Field,
    Grid2D,
    VectorField,
    ball_integral,
    field_from_csv,
    field_to_csv,
    gradient,
    interpolate,
    read_field,
    shell_integral,
    square_grid,
    write_field,
)
from .presets import (
    harmonic_pair,
    linear_pair,
    linear_pair_bdata,
)
from .profile1d import (
    Profile1D,
    asymptotic_slope,
    crossing_point,
    extend_to_2d,
    solve_profile,
)
from .sphere import (
    MinimizerReport,
    SphericalPair,
    SweepFit,
    dirichlet_energy,
    fit_deficit,
    gamma,
    kappa_sweep,
    minimize_spherical,
    product_mass,
    rearrange_pair,
    uniform_pair,
)

__version__ = "0.1.0"

__all__ = [
    "BlowdownRecord",
    "DoublingCheck",
    "Field",
    "FlatnessFit",
    "Grid2D",
    "MinimizerReport",
    "MonotonicityTrace",
    "ProductBounds",
    "Profile1D",
    "SolutionPair",
    "SolveConfig",
    "SphericalPair",
    "SweepFit",
    "VectorField",
    "acf_J",
    "acf_trace_and_fit",
    "almgren_H",
    "almgren_N",
    "asymptotic_slope",
    "ball_integral",
    "check_doubling",
    "compute_L",
    "cone_monotonicity",
    "correction_constant",
    "crossing_point",
    "direction_convergence",
    "dirichlet_energy",
    "eps_mono",
    "extend_to_2d",
    "field_from_csv",
    "field_to_csv",
    "fit_deficit",
    "flatness_direction",
    "frequency_trace",
    "functional_trace",
    "gamma",
    "gradient",
    "gradient_bounds",
    "harmonic_deficit",
    "harmonic_pair",
    "interpolate",
    "kappa_sweep",
    "linear_pair",
    "linear_pair_bdata",
    "minimize_spherical",
    "nondegeneracy_exponent",
    "product_bounds",
    "product_mass",
    "read_field",
    "rearrange_pair",
    "rescale",
    "shell_integral",
    "solve_linear_decay",
    "solve_profile",
    "solve_system",
    "square_grid",
    "uniform_pair",
    "write_field",
]
