"""
Spectral calculus on the torus grid
===================================

Derivatives here are exact on band-limited data: a trig polynomial whose
modes stay under N/3 differentiates to machine precision, and products of
two such fields stay below the Nyquist band after the 2/3 truncation.
"""

import numpy as np

from torusflow import (
    ScalarField,
    TorusGeometry,
    complex_hessian,
    flat_laplacian,
    integrate,
    random_band_limited,
    truncate_modes,
)

geo = TorusGeometry(n=1, N=64)
x = geo.coordinate(0)
y = geo.coordinate(1)

# a single mode: phi = cos(2 pi (3x - 2y))
theta = 3 * x - 2 * y
phi = ScalarField(geo, np.cos(2 * np.pi * theta))

# the complex Hessian d d-bar of a mode k multiplies it by -pi^2 |w|^2
# with w = k_x + i k_y, so here |w|^2 = 9 + 4 = 13
hess = complex_hessian(phi)
expected = -(np.pi**2) * 13 * phi.values
err = np.abs(hess.values[0] - expected).max()  # slot 0: the (0,0) entry
print(f"single mode (3,-2): hessian error {err:.3e}")

lap = flat_laplacian(phi)
err = np.abs(lap.values - expected).max()
print(f"flat laplacian matches the n=1 hessian: error {err:.3e}")

# random band-limited data: derivatives commute with the band limit
f = random_band_limited(42, 5, geo)
g = random_band_limited(43, 5, geo)
print(f"random field mean (should vanish): {integrate(f):+.3e}")

# a product of two mode-5 fields carries modes up to 10; truncating at
# N//3 = 21 changes nothing, so the grid held the product exactly
prod = ScalarField(geo, f.values * g.values)
kept = truncate_modes(prod, geo.N // 3)
print(f"product aliasing residue at N=64: {np.abs(kept.values - prod.values).max():.3e}")

# the same product on a coarse N=16 grid does alias: modes up to 10
# wrap past the band limit 5 and truncation removes real content
coarse = TorusGeometry(n=1, N=16)
fc = random_band_limited(42, 5, coarse)
gc = random_band_limited(43, 5, coarse)
prod_c = ScalarField(coarse, fc.values * gc.values)
kept_c = truncate_modes(prod_c, coarse.N // 3)
print(f"product truncation loss at N=16: {np.abs(kept_c.values - prod_c.values).max():.3e}")
