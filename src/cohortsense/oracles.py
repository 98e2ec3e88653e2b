"""Brute-force verification suites, shared by `eval-oracle` and the tests.

Each suite takes its seed, so that the CLI and the acceptance tests run
the same checks on different random draws.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .cluster import ClusterRegistry, batch_dbscan
from .learners.linear import logreg_gradient, logreg_loss


def dbscan_trials(seed: int) -> Iterator[tuple[int, int, ClusterRegistry, tuple]]:
    """Yield (trial, perm, registry, batch partition) for 10 random point
    sets of 200 points, each inserted into a fresh registry in 5 shuffled
    orders. The registry's `partition()` must equal batch DBSCAN's; at 200
    points its `min_pts` is 20, the batch run's.
    """
    master = np.random.default_rng(seed)
    for trial in range(10):
        dim = 2 + trial % 7
        rng = np.random.default_rng(master.integers(2**32))
        centers = rng.uniform(-5.0, 5.0, size=(3, dim))
        rows = [centers[i % 3] + rng.normal(0, 0.3, dim) for i in range(170)]
        rows += [rng.uniform(-8.0, 8.0, dim) for _ in range(30)]
        points = {f"q{i:04d}": np.asarray(v) for i, v in enumerate(rows)}
        oracle = batch_dbscan(points, eps=0.9, min_pts=20)
        for perm in range(5):
            ids = list(points)
            rng.shuffle(ids)
            registry = ClusterRegistry(eps=0.9, density_fraction=0.1, min_pts_floor=5)
            for pid in ids:
                registry.insert(pid, points[pid])
            yield trial, perm, registry, oracle


def gradient_max_rel_error(seed: int) -> float:
    """Worst relative error of the analytic logistic-loss gradient against
    central differences, over 20 random problems."""
    rng = np.random.default_rng(seed)
    h = 1e-5
    worst = 0.0
    for _ in range(20):
        n, d = int(rng.integers(5, 40)), int(rng.integers(1, 8))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, n).astype(float)
        w = rng.normal(size=d)
        b = float(rng.normal())
        grad_w, grad_b = logreg_gradient(w, b, X, y, 1e-3)
        for j in range(d):
            wp, wm = w.copy(), w.copy()
            wp[j] += h
            wm[j] -= h
            num = (logreg_loss(wp, b, X, y, 1e-3) - logreg_loss(wm, b, X, y, 1e-3)) / (2 * h)
            worst = max(worst, abs(grad_w[j] - num) / max(abs(num), abs(grad_w[j]), 1e-8))
        num_b = (logreg_loss(w, b + h, X, y, 1e-3) - logreg_loss(w, b - h, X, y, 1e-3)) / (2 * h)
        worst = max(worst, abs(grad_b - num_b) / max(abs(num_b), abs(grad_b), 1e-8))
    return worst
