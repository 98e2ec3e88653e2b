"""Synthetic minority oversampling by segment interpolation."""

from __future__ import annotations

import numpy as np

from ..core import ValidationError
from .base import Dataset


BLOCK_ROWS = 256  # rows of the distance matrix held at once


def _minority_neighbors(points: np.ndarray, k: int) -> np.ndarray:
    """Indices of each minority point's k nearest minority neighbors.

    Euclidean distance; distance ties broken by lower index so results are
    stable under any input permutation of equal points. Distances are
    computed BLOCK_ROWS rows at a time, so memory is O(BLOCK_ROWS * n * d).
    Each row's k-th smallest distance is found by partition; only the
    candidates at or below it are sorted, by (distance, column).
    """
    n = points.shape[0]
    order = np.empty((n, k), dtype=np.int64)
    for start in range(0, n, BLOCK_ROWS):
        block = points[start : start + BLOCK_ROWS]
        diffs = block[:, None, :] - points[None, :, :]
        dist = np.sqrt((diffs**2).sum(axis=2))
        rows = np.arange(len(block))
        dist[rows, start + rows] = np.inf
        kth = np.partition(dist, k - 1, axis=1)[:, k - 1]
        # row-major, so each row's candidates come in column order
        cand_rows, cand_cols = np.nonzero(dist <= kth[:, None])
        ranked = np.lexsort((cand_cols, dist[cand_rows, cand_cols], cand_rows))
        first = np.searchsorted(cand_rows[ranked], rows)
        order[start + rows] = cand_cols[ranked][first[:, None] + np.arange(k)]
    return order


def smote(dataset: Dataset, k_neighbors: int, seed: int) -> Dataset:
    """Add interpolated minority samples until class counts are equal.

    Each synthetic row is x + u * (x_nn - x) for a minority row x, one of
    its k nearest minority neighbors x_nn, and u uniform in [0, 1).
    Original rows are returned unchanged (order preserved), synthetics
    appended. Deterministic for a fixed seed regardless of row order.
    """
    zeros, ones = dataset.class_counts()
    if zeros == ones:
        return dataset
    minority_label = 1 if ones < zeros else 0
    n_needed = abs(zeros - ones)

    order = dataset.canonical_order()
    minority_rows = order[dataset.labels[order] == minority_label]
    n_min = len(minority_rows)
    if n_min < 2:
        raise ValidationError(
            f"SMOTE needs at least 2 minority samples, found {n_min}"
        )
    k = min(k_neighbors, n_min - 1)

    points = dataset.vectors[minority_rows]
    neighbors = _minority_neighbors(points, k)

    # the neighbour pick and u alternate in one stream, one pair per row
    rng = np.random.default_rng(seed)
    src = np.arange(n_needed) % n_min
    pick = np.empty(n_needed, dtype=np.int64)
    u = np.empty(n_needed)
    for i in range(n_needed):
        pick[i] = rng.integers(0, k)
        u[i] = rng.random()
    nn = neighbors[src, pick]
    synth_vectors = points[src] + u[:, None] * (points[nn] - points[src])

    vectors = np.vstack([dataset.vectors, synth_vectors])
    labels = np.concatenate(
        [dataset.labels, np.full(n_needed, minority_label, dtype=int)]
    )
    pids = dataset.participant_ids + tuple(
        f"synthetic_{i:05d}" for i in range(n_needed)
    )
    return Dataset(vectors=vectors, labels=labels, participant_ids=pids)
