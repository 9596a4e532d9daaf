"""Magnitude and maximum diversity of positive definite metric spaces."""

from .metric_core import (
    FiniteMetricSpace,
    SpaceSpec,
    ValidationReport,
    generate,
    hausdorff_distance,
    load_distance_csv,
    lp_product,
    random_cloud_spec,
    scale_space,
    snowflake_space,
    validate_metric,
)
from .magnitude import (
    MagnitudeReport,
    ScaleSweep,
    SpectrumDiagnostics,
    magnitude,
    magnitude_dimension_estimate,
    rayleigh,
    scale_sweep,
    similarity,
    spectrum_diagnostics,
    weighting,
)
from .diversity import (
    DiversityReport,
    diversity_diameter_check,
    is_positively_weighted,
    max_diversity,
)
from .negative_type import (
    NegativeTypeReport,
    StabilityReport,
    negative_type_test,
    stability_scan,
)
from .analysis import (
    BoundCheck,
    ConvergenceStudy,
    FourierReport,
    approx_magnitude,
    fourier_upper_bound_1d,
    gamma_hat_1d,
    growth_bound_study,
    growth_lower_bound,
    lp_ball_volume,
    product_counterexample_experiment,
    witness_search,
)

__version__ = "0.1.0"
