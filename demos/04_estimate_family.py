"""
A calibrated family and its uniform estimates
=============================================

Scenario i carries random band-limited initial data scaled so its scalar
curvature floor sits in [-1/i, -1/(2i)]. Flowing every member and fitting
one constant per estimate across the whole family reproduces the expected
decay rates: curvature-scale quantities shrink like 1/sqrt(i) or faster.
Each trace is measured as soon as it is computed and then released, as
the batch runner does.
"""

import math

from torusflow import (
    FlowConfig,
    ScenarioSpec,
    TorusGeometry,
    build_reports,
    default_test_forms,
    family_summary,
    fit_rate,
    make_sequence,
    measure,
    pairing_density,
    run_flow,
)

geo = TorusGeometry(n=1, N=64)
spec = ScenarioSpec(geometry=geo, seed=90, indices=(1, 4, 16, 64), p=math.inf)

scenarios = make_sequence(spec)
print(f"{'i':>4} {'amplitude':>12} {'curv floor':>12} {'trace norm':>11}")
for sc in scenarios:
    print(f"{sc.index:4d} {sc.amplitude:12.6f} {sc.curvature_floor:12.6f} {sc.trace_norm:11.4f}")

forms = default_test_forms(geo)
densities = [pairing_density(form) for _, form in forms]
ms = [
    measure(run_flow(sc.metric, FlowConfig()), sc.index, sc.amplitude, forms, densities,
            [1.0, 1.5])
    for sc in scenarios
]
reports, fam = build_reports(ms)

print("\nfamily-fitted constants:")
for name, value in fam.items():
    print(f"  {name:24s} {value:.6f}")

print("\nper-scenario check verdicts (i=1):")
for name, chk in sorted(reports[0].checks.items()):
    print(f"  {name:22s} slack {chk.slack:+.3e}  pass={chk.passed}")

# decay rates across the family; the model heuristics predict -1/2
indices = [m.index for m in ms]
print("\nrate fits (log-log slope against i):")
print(f"  -inf dphi/dt : {fit_rate(indices, [-m.inf_dot_phi for m in ms]).slope:+.3f}")
print(f"  -floor       : {fit_rate(indices, [-m.volume_log_floor for m in ms]).slope:+.3f}")
for j, row in enumerate(ms[0].forms):
    if row[0] == "const":
        continue
    gaps = [abs(m.forms[j][3]) for m in ms]
    print(f"  |E({row[0]})|   : {fit_rate(indices, gaps).slope:+.3f}")

summary = family_summary(ms, fam)
print(f"\nsummary verdict: rates pass = "
      f"{all(s['pass'] for s in summary['rates'].values() if s['applicable'])}, "
      f"density L1 strictly decreasing = "
      f"{summary['monotonic']['v_minus_one_l1']['strictly_decreasing']}")
