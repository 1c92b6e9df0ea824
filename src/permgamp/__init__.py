"""permgamp: material permittivity estimation from path-loss measurements.

A 2D image-method ray tracer provides the forward map from relative
permittivities to dB link gains; the estimator linearizes that map and runs
multi-step Gaussian message passing with a trust region on the interval
prior. A brute-force grid oracle ships alongside for verification.
"""

from .errors import ParseError, SolverError, UnusableLinkError, ValidationError
from .scenario import (
    Dataset,
    Link,
    Material,
    Scenario,
    Surface,
    bundled_scenario_path,
    load_dataset,
    load_scenario,
    make_canyon_scenario,
    make_free_space_scenario,
    normalize_measurements,
    save_dataset,
    save_scenario,
    synthesize_dataset,
)
from .raytracer import Ray, Rays, Reflection, trace_link, trace_scenario
from .forward_model import forward
from .trunc_gauss import Interval, truncated_moments
from .gamp import (
    EstimateReport,
    GampConfig,
    default_config,
    report_to_dict,
    report_to_json,
    solve,
)
from .oracle import GridSpec, grid_map, log_posterior
from .experiment import (
    ExperimentConfig,
    prepare_problem,
    run_estimate,
    run_sweep,
    write_sweep_outputs,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "EstimateReport",
    "ExperimentConfig",
    "GampConfig",
    "GridSpec",
    "Interval",
    "Link",
    "Material",
    "ParseError",
    "Ray",
    "Rays",
    "Reflection",
    "Scenario",
    "SolverError",
    "Surface",
    "UnusableLinkError",
    "ValidationError",
    "bundled_scenario_path",
    "default_config",
    "forward",
    "grid_map",
    "load_dataset",
    "load_scenario",
    "log_posterior",
    "make_canyon_scenario",
    "make_free_space_scenario",
    "normalize_measurements",
    "prepare_problem",
    "report_to_dict",
    "report_to_json",
    "run_estimate",
    "run_sweep",
    "save_dataset",
    "save_scenario",
    "solve",
    "synthesize_dataset",
    "trace_link",
    "trace_scenario",
    "truncated_moments",
    "write_sweep_outputs",
]
