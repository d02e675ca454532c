"""The claims of PAPER.md, each run where its own hypothesis holds.

One row per (claim, method, convexity class): a config, the hypothesis
check, asserted to hold, and the conclusion.  Thresholds are frozen from
pilot runs on seeds 101-103 before the row's test ran, and the test runs on
a different seed, so no threshold is tuned to the run it judges.

Rows:
- (c) Nesterov accelerated SGD converges: `nasgd` with constant damping on
  a non-convex problem, where L * beta_hat < inf mu holds; the running
  minimum of mean ||grad f||^2 falls below a frozen threshold.
"""

import pytest

from sgdlab import ExperimentConfig, liminf_probe, run_experiment
from sgdlab.harness import nasgd_hypothesis
from sgdlab.problems import Convexity

SEED = 20260814   # disjoint from the pilot seeds

# smooth_rastrigin(2, 0.06): L = 2 + 0.06 * 4 pi^2 = 4.37 and constant
# mu = 5, so L * beta_hat = 4.37 < 5 = inf mu.  Mean ||grad f||^2 starts at
# 34.0; pilot seeds 101-103 ended their running minima at 1.24e-4, 1.08e-4
# and 1.18e-4 in under 1 s each.  The threshold is twice the worst of them.
_NASGD_NONCONVEX = ExperimentConfig(
    problem={"kind": "smooth_rastrigin", "dim": 2, "amplitude": 0.06},
    oracle={"kind": "gaussian", "sigma": 0.5},
    schedule={"alpha_c": 0.2, "alpha_a": 0.6, "mu_m": 5.0, "mu_b": 0.0},
    method="nasgd", horizon=20_000, replicas=200, seed=SEED, x0=[2.5, -1.5])
_NASGD_NONCONVEX_THRESHOLD = 2 * 1.2414689712795908e-4


def _nasgd_hypothesis_holds(est) -> bool:
    return nasgd_hypothesis(est)["l_beta_lt_mu"]


CLAIMS = [
    pytest.param(_NASGD_NONCONVEX, Convexity.NONCONVEX, _nasgd_hypothesis_holds,
                 _NASGD_NONCONVEX_THRESHOLD, id="c-nasgd-constant-mu-nonconvex"),
]


@pytest.mark.parametrize("cfg, convexity, hypothesis, threshold", CLAIMS)
def test_claim_holds_where_its_hypothesis_does(cfg, convexity, hypothesis, threshold):
    est = run_experiment(cfg)
    assert est.problem.convexity is convexity
    assert hypothesis(est)
    assert est.diverged == 0
    assert liminf_probe(est)[-1] < threshold
