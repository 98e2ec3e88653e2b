"""Brute-force verification suites, shared by `eval-oracle` and the tests.

Each suite takes its seed, so that the CLI and the acceptance tests run
the same checks on different random draws.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

import numpy as np

from .cluster import ClusterRegistry, batch_dbscan
from .learners import linear


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


def _rel_error(analytic, numeric) -> float:
    """Largest |analytic - numeric| over the larger of the two (or 1e-8)."""
    a, b = np.asarray(analytic), np.asarray(numeric)
    return float((np.abs(a - b) / np.maximum(np.maximum(abs(a), abs(b)), 1e-8)).max(initial=0.0))


def gradient_max_rel_error(seed: int) -> float:
    """Worst relative error against central differences, over 20 random
    problems, of the logistic-loss gradient and of the per-row derivatives
    the Newton solver runs on: the cross-entropy's first and second, and
    the squared hinge's first, away from its kink."""
    rng = np.random.default_rng(seed)
    h = 1e-5
    h2 = 1e-3  # for the second difference, whose rounding grows as 1/h^2
    errors = []
    for _ in range(20):
        n, d = int(rng.integers(5, 40)), int(rng.integers(1, 8))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, n).astype(float)
        theta = rng.normal(size=d + 1)  # (weights, bias)

        def objective(t):
            return linear.logreg_loss(t[:-1], t[-1], X, y, 1e-3)

        grad = np.append(*linear.logreg_gradient(theta[:-1], theta[-1], X, y, 1e-3))
        num = [(objective(theta + e) - objective(theta - e)) / (2 * h) for e in h * np.eye(d + 1)]
        errors.append(_rel_error(grad, num))

        # per-row scores in [-6, 6], where the second difference resolves p(1 - p)
        s = rng.uniform(-6.0, 6.0, n)
        ce = functools.partial(linear._logistic_loss, y=y)
        hinge = functools.partial(linear._squared_hinge_loss, y=y)
        first, second = linear._logistic_derivatives(s, y)
        errors.append(_rel_error(first, (ce(s + h) - ce(s - h)) / (2 * h)))
        errors.append(_rel_error(second, (ce(s + h2) - 2 * ce(s) + ce(s - h2)) / h2**2))
        smooth = np.abs(1.0 - (2.0 * y - 1.0) * s) > 1e-3
        first = linear._squared_hinge_derivatives(s, y)[0][smooth]
        errors.append(_rel_error(first, ((hinge(s + h) - hinge(s - h)) / (2 * h))[smooth]))
    return max(errors)
