"""Synthetic minority oversampling by segment interpolation."""

from __future__ import annotations

import numpy as np

from ..core import ValidationError
from .base import Dataset


BLOCK_ROWS = 256  # rows of the distance matrix held at once
NO_ROWS = np.empty(0, dtype=int)


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


def needs_smote(dataset: Dataset) -> bool:
    """Whether SMOTE rebalances ``dataset``: its classes differ in size and
    the smaller one holds at least the two rows a segment needs."""
    zeros, ones = dataset.class_counts()
    return zeros != ones and min(zeros, ones) >= 2


class NeighborTables:
    """SMOTE's neighbour tables for one dataset and for each of its
    ``folds``-fold CV training sets, from one distance pass per class.

    A class's wide table, built on first use, lists each of its rows'
    ``min(k + t, n - 1)`` nearest rows of the class, in canonical order,
    where ``t = ceil(n / folds)`` is the most rows of the class that a
    stratified test fold holds. Holding out a test fold removes at most
    ``t`` entries from any row, so the first ``k`` survivors are the
    training set's own ``k`` nearest neighbours, ties broken by index as
    ``_minority_neighbors`` breaks them, since the training rows keep
    their relative canonical order.
    """

    def __init__(self, dataset: Dataset, k_neighbors: int, folds: int) -> None:
        self.dataset = dataset
        self.k_neighbors = k_neighbors
        self.folds = folds
        self._order = dataset.canonical_order()
        self._wide: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _class_table(self, label: int) -> tuple[np.ndarray, np.ndarray]:
        """The class's rows in canonical order and their wide table."""
        if label not in self._wide:
            rows = self._order[self.dataset.labels[self._order] == label]
            n = len(rows)
            width = min(self.k_neighbors + -(-n // self.folds), n - 1)
            self._wide[label] = rows, _minority_neighbors(self.dataset.vectors[rows], width)
        return self._wide[label]

    def table(self, held_out: np.ndarray = NO_ROWS) -> np.ndarray:
        """The neighbour table ``smote`` reads for the dataset without the
        rows ``held_out``: its minority rows' nearest minority rows, both
        numbered in that set's canonical minority order."""
        kept = np.ones(len(self.dataset), dtype=bool)
        kept[held_out] = False
        ones = int(self.dataset.labels[kept].sum())
        label = 1 if ones < kept.sum() - ones else 0
        rows, wide = self._class_table(label)
        keep = kept[rows]
        k = min(self.k_neighbors, int(keep.sum()) - 1)
        cand = wide[keep]
        alive = keep[cand]
        rank = np.cumsum(alive, axis=1)
        if (rank[:, -1] < k).any():
            raise AssertionError("a held-out set removed more neighbours than the table spares")
        renumber = np.cumsum(keep) - 1
        return renumber[cand[alive & (rank <= k)]].reshape(-1, k)


def smote(dataset: Dataset, neighbors: np.ndarray, seed: int) -> Dataset:
    """Add interpolated minority samples until class counts are equal.

    Each synthetic row is x + u * (x_nn - x) for a minority row x, one of
    its nearest minority neighbors x_nn, and u uniform in [0, 1).
    ``neighbors`` holds each minority row's k nearest minority rows, both
    numbered in canonical minority order (``NeighborTables.table``).
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
    if neighbors.ndim != 2 or neighbors.shape[0] != n_min or neighbors.shape[1] < 1:
        raise ValidationError(
            f"neighbour table of shape {neighbors.shape} does not fit {n_min} minority rows"
        )
    k = neighbors.shape[1]
    points = dataset.vectors[minority_rows]

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
