"""Privacy accounting and simulation for federated DP-SGD with random
client participation and local Poisson subsampling."""

from fedamp.accountant import (
    CalibrationError,
    DegenerateIntegrandError,
    PrivacyPoint,
    SamplingParams,
    Scheme,
    SweepRow,
    SweepVariable,
    calibrate_sigma,
    delta_for_scheme,
    delta_lower_bound,
    delta_main,
    delta_only_local,
    delta_upper_bound,
    eps_for_delta,
    sweep,
)
from fedamp.divergence import (
    GaussianMixture1D,
    HockeyStickQuery,
    hockey_stick,
    worst_case_pair,
)
from fedamp.numerics import gaussian_mechanism_delta
from fedamp.simulator import SimConfig, Task, TrainingDivergedError, run_training

__version__ = "0.1.0"

__all__ = [
    "CalibrationError",
    "DegenerateIntegrandError",
    "GaussianMixture1D",
    "HockeyStickQuery",
    "PrivacyPoint",
    "SamplingParams",
    "Scheme",
    "SimConfig",
    "SweepRow",
    "SweepVariable",
    "Task",
    "TrainingDivergedError",
    "calibrate_sigma",
    "delta_for_scheme",
    "delta_lower_bound",
    "delta_main",
    "delta_only_local",
    "delta_upper_bound",
    "eps_for_delta",
    "gaussian_mechanism_delta",
    "hockey_stick",
    "run_training",
    "sweep",
    "worst_case_pair",
    "__version__",
]
