"""Shared test helpers: a compact experiment-config factory and the
configs that static validation must reject."""

from sgdlab import ExperimentConfig


def make_cfg(**overrides) -> ExperimentConfig:
    """A small, fast vSGD experiment; keyword arguments replace fields."""
    base = dict(
        problem={"kind": "quadratic", "spectrum": [1.0, 4.0]},
        oracle={"kind": "gaussian", "sigma": 0.5},
        schedule={"alpha_c": 0.5, "alpha_a": 0.6},
        method="vsgd",
        horizon=200,
        replicas=8,
        seed=1234,
        x0=[2.0, -1.0],
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# (make_cfg overrides, message pattern) that `validate_config` rejects.
INVALID_CONFIGS = [
    (dict(method="sgd"), "method must be one of"),
    (dict(horizon=0), "horizon"),
    (dict(divergence_tolerance=1.5), "divergence_tolerance"),
    (dict(method="msgd_damped"), "positive damping"),
    (dict(method="msgd_classical"), "requires .run. beta"),
    (dict(method="msgd_classical", beta=1.0), "beta must lie"),
    (dict(lyapunov=True, checkpoint_stride=10), "checkpoint_stride = 1"),
    (dict(checkpoint_stride=-3), "checkpoint_stride must be >= 0"),
    (dict(x0=[float("nan"), 1.0]), "x0'? must be a list of numbers"),
    (dict(lyap_coeff=float("inf")), "lyap_coeff'? must be a finite number"),
    (dict(x0=[1.0]), "x0 has length"),
    (dict(method="msgd_damped",
          schedule={"alpha_c": 2.0, "alpha_a": 0.0, "mu_m": 1.0, "mu_b": 0.0}),
     "exceeds 1"),
    (dict(problem={"kind": "mystery"}), "unknown kind"),
    (dict(schedule={"alpha_c": -1.0, "alpha_a": 0.0}), "coeff_alpha"),
]
