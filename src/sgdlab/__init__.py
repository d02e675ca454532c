"""sgdlab: stochastic gradient methods under power-law schedules.

Schedule classification, test problems with certified smoothness constants,
noise oracles with declared second-moment bounds, five first-order update
rules (plain / damped momentum / classical momentum / schedule-coupled
look-ahead / classical look-ahead), energy-function diagnostics, and a
reproducible Monte Carlo experiment harness with a CLI front end.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DivergenceError, ExperimentError,
                     ParameterError)
from .schedules import (PowerSchedule, ScheduleClass, PartialSumReport,
                        make_power_schedule, classify, numeric_probe)
from .problems import (Problem, Convexity, Minimum, WeakConvexityCertificate,
                       quadratic, pseudo_huber, smooth_rastrigin,
                       least_squares_sum, check_gradient)
from .oracles import (GradientOracle, NoiseBound, OracleSample,
                      gaussian_oracle, relative_noise_oracle,
                      minibatch_oracle, verify_bound)
from .optimizers import (METHODS, IterState, AveragedState, Trajectory,
                         init_state, init_average, vsgd_step,
                         msgd_damped_step, msgd_classical_step, nasgd_step,
                         nesterov_classical_step, averaged_update, run,
                         checkpoint_grid, trajectory_csv, trajectory_json)
from .lyapunov import (LyapunovScalars, LyapunovSeries, DescentFit,
                       TripletReport, scalars, select_zeta, select_lambda,
                       descent_fit, triplet_probe)
from .config import (ExperimentConfig, SweepSpec, parse_config_file,
                     parse_sweep_file, sweep_grid, manifest_dict,
                     config_from_manifest, validate_config)
from .harness import (MonteCarloEstimate, run_experiment, estimates_csv,
                      summary_dict, liminf_probe, averaged_bound_probe,
                      sweep, sweep_csv)

__all__ = [
    "__version__",
    "ConfigError", "DivergenceError", "ExperimentError", "ParameterError",
    "PowerSchedule", "ScheduleClass", "PartialSumReport",
    "make_power_schedule", "classify", "numeric_probe",
    "Problem", "Convexity", "Minimum", "WeakConvexityCertificate",
    "quadratic", "pseudo_huber", "smooth_rastrigin", "least_squares_sum",
    "check_gradient",
    "GradientOracle", "NoiseBound", "OracleSample", "gaussian_oracle",
    "relative_noise_oracle", "minibatch_oracle", "verify_bound",
    "METHODS", "IterState", "AveragedState", "Trajectory", "init_state",
    "init_average", "vsgd_step", "msgd_damped_step", "msgd_classical_step",
    "nasgd_step", "nesterov_classical_step", "averaged_update", "run",
    "checkpoint_grid", "trajectory_csv", "trajectory_json",
    "LyapunovScalars", "LyapunovSeries", "DescentFit", "TripletReport",
    "scalars", "select_zeta", "select_lambda", "descent_fit", "triplet_probe",
    "ExperimentConfig", "SweepSpec", "parse_config_file", "parse_sweep_file",
    "sweep_grid", "manifest_dict", "config_from_manifest", "validate_config",
    "MonteCarloEstimate", "run_experiment", "estimates_csv", "summary_dict",
    "liminf_probe", "averaged_bound_probe", "sweep", "sweep_csv",
]
