"""Train the same federated logistic model under three noise calibrations.

Each scheme is calibrated to the same per-round (eps, delta) =
(0.015, 1e-6), so the only difference between runs is how much noise it
asks for. Only ub and ols certify that budget; main evaluates one pair,
which falls below the worst case over neighbouring datasets, so its lower
loss is not bought at equal privacy.
"""

import numpy as np

from fedamp import Scheme, SimConfig, Task, calibrate_sigma, run_training
from fedamp.accountant import CERTIFIED_SCHEMES

SCHEMES = (Scheme.MAIN, Scheme.UPPER_BOUND, Scheme.ONLY_LOCAL)
SEEDS = range(5)

sigmas = {
    scheme: calibrate_sigma(
        scheme, p=0.1, q=0.1, d=30, C=1.0, eps_target=0.015, delta_target=1e-6
    )
    for scheme in SCHEMES
}

print("per-round budget (0.015, 1e-6), 150 rounds, 5 seeds")
print(f"{'scheme':8} {'sigma':>8} {'final loss':>12} {'certified':>10}")
for scheme in SCHEMES:
    finals = []
    for seed in SEEDS:
        config = SimConfig(
            N=100, d=30, p=0.1, q=0.1, C=1.0, sigma=sigmas[scheme],
            T=150, eta=0.5, m=20, seed=seed,
        )
        rows = run_training(config, Task.LOGISTIC_REGRESSION)
        finals.append(rows[-1].loss)
    certified = str(scheme in CERTIFIED_SCHEMES).lower()
    print(f"{scheme.value:8} {sigmas[scheme]:8.3f} {np.mean(finals):12.4f} {certified:>10}")
