"""Synthetic minority oversampling by segment interpolation."""

from __future__ import annotations

import itertools

import numpy as np
from scipy.spatial import cKDTree

from ..core import ValidationError
from .base import Dataset


BLOCK_ROWS = 256  # rows whose neighbours are searched at once


def _minority_neighbors(points: np.ndarray, k: int) -> np.ndarray:
    """Indices of each minority point's k nearest minority neighbors, by
    brute force: the test oracle of ``_tree_neighbors``.

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


def _first_copies(points: np.ndarray, keep: int) -> np.ndarray:
    """Indices, ascending, of the rows that are among the first ``keep``
    rows equal to their vector."""
    n = len(points)
    order = np.lexsort(points.T[::-1])  # equal rows together, by index
    ranked = points[order]
    new = np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)]
    rank = np.arange(n) - np.maximum.accumulate(np.where(new, np.arange(n), 0))
    return np.sort(order[rank < keep])


def _tree_neighbors(points: np.ndarray, k: int, m: int | None = None) -> np.ndarray:
    """``_minority_neighbors(points, k)[:m]``, bit for bit, from a k-d tree
    (Friedman, Bentley & Finkel, ACM TOMS 1977) in place of n x n distances.

    Copies of one vector tie at distance 0 and rank by index, so beyond the
    k + 1 lowest-indexed copies of a vector none can be anyone's neighbour:
    the tree holds only those copies, and only the first ``m`` rows (all by
    default) are searched. The tree gives each searched row its (k+1)-th
    nearest distance, the row itself counted if held; every held row within
    that distance times (1 + 1e-9) is a candidate, so the tree's rounding
    drops no true neighbour. Candidates are ranked by the oracle's own
    distance and then by index, the row itself left out. BLOCK_ROWS rows
    are searched at a time, so memory is O(BLOCK_ROWS * n), and a row has at
    most k + 1 candidates per distinct vector in reach.
    """
    m = points.shape[0] if m is None else m
    held = _first_copies(points, k + 1)
    tree = cKDTree(points[held])
    radius = tree.query(points[:m], k + 1)[0][:, -1] * (1 + 1e-9)
    order = np.empty((m, k), dtype=np.int64)
    for start in range(0, m, BLOCK_ROWS):
        rows = np.arange(start, min(start + BLOCK_ROWS, m))
        found = tree.query_ball_point(points[rows], radius[rows])
        sizes = [len(f) for f in found]
        cand_rows = np.repeat(rows, sizes)
        cand_cols = held[np.fromiter(itertools.chain.from_iterable(found), np.int64, sum(sizes))]
        other = cand_rows != cand_cols
        cand_rows, cand_cols = cand_rows[other], cand_cols[other]
        dist = np.sqrt(((points[cand_rows] - points[cand_cols]) ** 2).sum(axis=1))
        ranked = cand_cols[np.lexsort((cand_cols, dist, cand_rows))]
        first = np.searchsorted(cand_rows, rows)
        order[rows] = ranked[first[:, None] + np.arange(k)]
    return order


def needs_smote(dataset: Dataset) -> bool:
    """Whether SMOTE rebalances ``dataset``: its classes differ in size and
    the smaller one holds at least the two rows a segment needs."""
    zeros, ones = dataset.class_counts()
    return zeros != ones and min(zeros, ones) >= 2


def smote(dataset: Dataset, k_neighbors: int, seed: int) -> Dataset:
    """Add interpolated minority samples until class counts are equal.

    Each synthetic row is x + u * (x_nn - x) for a minority row x, one of
    its ``min(k_neighbors, n_min - 1)`` nearest minority rows x_nn (by
    distance, then canonical order; ``_tree_neighbors``), and u uniform in
    [0, 1). Original rows are returned unchanged (order preserved),
    synthetics appended. Deterministic for a fixed seed regardless of row
    order.
    """
    if k_neighbors < 1:
        raise ValidationError(f"SMOTE needs k_neighbors >= 1, got {k_neighbors}")
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
    # only the first min(n_needed, n_min) rows are ever a segment's start
    neighbors = _tree_neighbors(points, k, min(n_needed, n_min))

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
