"""Host-speed probe: a fixed job that uses no torusflow code.

    python3 probe.py

It imports numpy and scipy and runs a fixed mix of FFTs, array
arithmetic, a Python loop and a sparse shortest-path search, the kinds
of work a torusflow process does.  run.py times it from spawn to exit
between repetitions; the median over a run measures how fast the shared
host runs at the time, independently of the code under test.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra


def main() -> None:
    rng = np.random.default_rng(0)
    field = rng.standard_normal((16, 16, 16, 16))
    for _ in range(24):
        spec = np.fft.fftn(field)
        field = np.fft.ifftn(spec * 0.5).real + 0.5 * field
    acc = 0.0
    for i in range(200_000):
        acc += (i % 7) * 0.5
    side = 48
    idx = np.arange(side * side).reshape(side, side)
    rows = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    cols = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    graph = sp.csr_matrix((rng.random(rows.size) + 0.1, (rows, cols)), shape=(side * side,) * 2)
    dist = dijkstra(graph, directed=False, indices=np.arange(0, side * side, 97))
    if not (np.isfinite(field).all() and np.isfinite(dist).all() and acc > 0):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
