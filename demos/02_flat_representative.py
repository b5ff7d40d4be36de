"""
Projecting a metric onto its flat representative
================================================

Every positive metric in a fixed class splits into a constant-coefficient
part plus a potential. The constant part is the unique Ricci-flat metric
in the class; the projection keeps the volume and gauges the potential to
have maximum zero.
"""

import numpy as np

from torusflow import (
    KahlerMetric,
    ScalarField,
    TorusGeometry,
    harmonic_projection,
    scalar_curvature,
    volume,
)

geo = TorusGeometry(n=1, N=64)
x = geo.coordinate(0)

phi = ScalarField(geo, 0.05 * np.cos(2 * np.pi * x))
metric = KahlerMetric(np.eye(1), phi)

print(f"input metric: H = {metric.H[0, 0].real:.1f}, potential amplitude 0.05")
print(f"  scalar curvature range: [{scalar_curvature(metric).min():+.4f}, "
      f"{scalar_curvature(metric).max():+.4f}]")

flat, u = harmonic_projection(metric)

print(f"flat representative: H_flat = {flat.H[0, 0].real:.12f}")
print(f"  max |R| = {np.abs(scalar_curvature(flat.as_metric()).values).max():.3e}")
print(f"  volume in = {volume(metric):.12f}, volume out = {volume(flat):.12f}")
print(f"  potential gauge: max u = {u.values.max():+.3e} (zero by convention)")
print(f"  sup |u| = {np.abs(u.values).max():.6f}")

# n=2: the projection just averages the assembled coefficients, so a
# constant Hermitian perturbation of the background is recovered exactly
geo2 = TorusGeometry(n=2, N=16)
H0 = np.eye(2) + np.array([[0.10, 0.02 + 0.01j], [0.02 - 0.01j, -0.05]])
zero = ScalarField(geo2, np.zeros(geo2.shape))
flat2, u2 = harmonic_projection(KahlerMetric(H0, zero))
print(f"n=2 recovery error: {np.abs(flat2.H - H0).max():.3e}, sup|u| = {np.abs(u2.values).max():.3e}")
