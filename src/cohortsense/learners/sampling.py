"""Synthetic minority oversampling by segment interpolation."""

from __future__ import annotations

import itertools

import numpy as np
from scipy.spatial import cKDTree

from ..core import ValidationError
from .base import Dataset


BLOCK_ROWS = 256  # rows whose neighbours are searched at once


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
    """The indices of the k nearest other rows of each of the first ``m``
    rows of ``points`` (all by default): by the Euclidean distance
    ``np.sqrt(((a - b) ** 2).sum())``, ties broken by lower index, so the
    table is stable under any permutation of equal points. Found with a k-d
    tree (Friedman, Bentley & Finkel, ACM TOMS 1977) in place of n x n
    distances.

    Copies of one vector tie at distance 0 and rank by index, so beyond the
    k + 1 lowest-indexed copies of a vector none can be anyone's neighbour:
    the tree holds only those copies. The tree gives each searched row its
    (k+1)-th nearest distance, the row itself counted if held; every held
    row within that distance times (1 + 1e-9) is a candidate, so the tree's
    rounding drops no true neighbour. Candidates are ranked by that distance
    and then by index, the row itself left out. BLOCK_ROWS rows
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


def _draws(seed: int, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``n`` picks and u that ``rng.integers(0, k)``, ``rng.random()``
    in turn draw from ``default_rng(seed)``, read from one ``random_raw``
    call. PCG64 serves a word's low then high half as 32-bit draws, keeping
    the spare half across ``random()``, which maps w to (w >> 11) * 2**-53;
    ``integers`` maps x to (x * k) >> 32 (Lemire, ACM TOMACS 2019). So rows
    2j, 2j + 1 pick from word 3j and take u from words 3j + 1, 3j + 2. At
    k = 1 (no pick is drawn), or if Lemire's method would redraw, the loop runs."""
    rng = np.random.default_rng(seed)
    if 1 < k < 2**32:
        words = rng.bit_generator.random_raw(3 * -(-n // 2)).reshape(-1, 3)
        x = np.column_stack([words[:, 0] & 0xFFFFFFFF, words[:, 0] >> 32]).ravel()[:n] * k
        if not ((x & 0xFFFFFFFF) < (2**32 - k) % k).any():
            return (x >> 32).astype(np.int64), (words[:, 1:].ravel()[:n] >> 11) * 2.0**-53
        rng = np.random.default_rng(seed)
    pick, u = np.empty(n, dtype=np.int64), np.empty(n)
    for i in range(n):
        pick[i], u[i] = rng.integers(0, k), rng.random()
    return pick, u


def minority_search(dataset: Dataset, k_neighbors: int) -> tuple[int, np.ndarray, np.ndarray]:
    """What every `smote` of ``dataset`` shares, whatever its seed: the
    minority label, its rows in canonical order, and the neighbour table of
    the first min(n_needed, n_min), the only rows a segment starts from."""
    zeros, ones = dataset.class_counts()
    minority_label = 1 if ones < zeros else 0
    order = dataset.canonical_order()
    points = dataset.vectors[order[dataset.labels[order] == minority_label]]
    n_min = len(points)
    if n_min < 2:
        raise ValidationError(f"SMOTE needs at least 2 minority samples, found {n_min}")
    k, m = min(k_neighbors, n_min - 1), min(abs(zeros - ones), n_min)
    return minority_label, points, _tree_neighbors(points, k, m)


def smote(dataset: Dataset, k_neighbors: int, seed: int, search: tuple | None = None) -> Dataset:
    """Add interpolated minority samples until class counts are equal.

    Each synthetic row is x + u * (x_nn - x) for a minority row x, one of
    its ``min(k_neighbors, n_min - 1)`` nearest minority rows x_nn (by
    distance, then canonical order; ``_tree_neighbors``), and u uniform in
    [0, 1). Original rows are returned unchanged (order preserved),
    synthetics appended. Deterministic for a fixed seed regardless of row
    order. Calls on one dataset may share its ``search`` (`minority_search`).
    """
    if k_neighbors < 1:
        raise ValidationError(f"SMOTE needs k_neighbors >= 1, got {k_neighbors}")
    zeros, ones = dataset.class_counts()
    if zeros == ones:
        return dataset
    minority_label, points, neighbors = search or minority_search(dataset, k_neighbors)
    n_needed = abs(zeros - ones)
    # the neighbour pick and u alternate in one stream, one pair per row
    pick, u = _draws(seed, n_needed, neighbors.shape[1])
    src = np.arange(n_needed) % len(points)
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
