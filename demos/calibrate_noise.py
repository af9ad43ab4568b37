"""Pick the noise multiplier for a deployment target, scheme by scheme."""

from fedamp import Scheme, calibrate_sigma
from fedamp.accountant import CERTIFIED_SCHEMES

# 100 clients, 10% participation, 10% element sampling, 30 elements each,
# per-round budget (0.015, 1e-6)
settings = dict(p=0.1, q=0.1, d=30, C=1.0, eps_target=0.015, delta_target=1e-6)

print(f"{'scheme':8} {'sigma':>10} {'certified':>10}")
for scheme in (Scheme.MAIN, Scheme.UPPER_BOUND, Scheme.ONLY_LOCAL):
    sigma = calibrate_sigma(scheme, **settings)
    print(f"{scheme.value:8} {sigma:10.4f} {str(scheme in CERTIFIED_SCHEMES).lower():>10}")

print()
print("Smaller sigma at the same budget means less noise per round. Only")
print("the certified schemes bound the worst case over neighbouring datasets;")
print("main evaluates one pair, so its smaller sigma is no certificate.")
