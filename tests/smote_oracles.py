"""Reference versions of SMOTE's neighbour search and draws, kept to test
the program's own against.

`minority_neighbors` finds neighbours by brute force and `loop_draws` draws
a generator's values one call at a time; `loop_smote` is `smote` built
from the two.
"""

import numpy as np

from cohortsense.learners import Dataset, sampling


def minority_neighbors(points: np.ndarray, k: int) -> np.ndarray:
    """Indices of each point's k nearest other points, by brute force.

    Euclidean distance; distance ties broken by lower index so results are
    stable under any input permutation of equal points. Distances are
    computed ``sampling.BLOCK_ROWS`` rows at a time, so memory is
    O(BLOCK_ROWS * n * d). Each row's k-th smallest distance is found by
    partition; only the candidates at or below it are sorted, by (distance,
    column).
    """
    n = points.shape[0]
    order = np.empty((n, k), dtype=np.int64)
    for start in range(0, n, sampling.BLOCK_ROWS):
        block = points[start : start + sampling.BLOCK_ROWS]
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


def loop_draws(seed: int, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The neighbour pick and u of each of ``n`` rows, one generator call each."""
    rng = np.random.default_rng(seed)
    pick = np.empty(n, dtype=np.int64)
    u = np.empty(n)
    for i in range(n):
        pick[i] = rng.integers(0, k)
        u[i] = rng.random()
    return pick, u


def loop_smote(dataset: Dataset, k_neighbors: int, seed: int) -> Dataset:
    """`smote` as a row loop over a brute-force neighbour table."""
    zeros, ones = dataset.class_counts()
    if zeros == ones:
        return dataset
    minority_label = 1 if ones < zeros else 0
    n_needed = abs(zeros - ones)
    order = dataset.canonical_order()
    points = dataset.vectors[order[dataset.labels[order] == minority_label]]
    n_min = len(points)
    neighbors = minority_neighbors(points, min(k_neighbors, n_min - 1))
    pick, u = loop_draws(seed, n_needed, neighbors.shape[1])
    src = np.arange(n_needed) % n_min
    nn = neighbors[src, pick]
    synth = points[src] + u[:, None] * (points[nn] - points[src])
    return Dataset(
        vectors=np.vstack([dataset.vectors, synth]),
        labels=np.concatenate([dataset.labels, np.full(n_needed, minority_label)]),
        participant_ids=dataset.participant_ids
        + tuple(f"synthetic_{i:05d}" for i in range(n_needed)),
    )
