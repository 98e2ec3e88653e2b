"""Classification metrics and stratified k-fold cross-validation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core import ValidationError
from .base import Dataset, derive_seed
from .sampling import needs_smote, smote


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    tn: int


def compute_metrics(predictions, labels) -> Metrics:
    """Confusion-matrix metrics with documented degenerate rules.

    With no positive predictions, precision is 1.0 when there are also no
    positive labels and 0.0 otherwise; recall is symmetric. F1 is 0 when
    precision + recall is 0.
    """
    preds = np.asarray(predictions, dtype=int)
    labs = np.asarray(labels, dtype=int)
    if preds.shape != labs.shape or preds.ndim != 1:
        raise ValidationError(
            f"predictions and labels must be equal-length 1-D, got "
            f"{preds.shape} vs {labs.shape}"
        )
    if len(preds) == 0:
        raise ValidationError("cannot compute metrics on empty inputs")

    tp = int(((preds == 1) & (labs == 1)).sum())
    fp = int(((preds == 1) & (labs == 0)).sum())
    fn = int(((preds == 0) & (labs == 1)).sum())
    tn = int(((preds == 0) & (labs == 0)).sum())

    accuracy = (tp + tn) / len(preds)
    if tp + fp == 0:
        precision = 1.0 if tp + fn == 0 else 0.0
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        recall = 1.0 if tp + fp == 0 else 0.0
    else:
        recall = tp / (tp + fn)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return Metrics(accuracy, precision, recall, f1, tp, fp, fn, tn)


def stratified_folds(dataset: Dataset, k: int, seed: int) -> list[np.ndarray]:
    """Partition row indices into k stratified folds of near-equal size.

    Rows are canonicalized and shuffled per class with the given seed;
    per-class remainders go to the currently smallest folds, keeping all
    fold sizes within one of each other.
    """
    if k < 2:
        raise ValidationError(f"k must be >= 2, got {k}")
    counts = dataset.class_counts()
    for label, count in enumerate(counts):
        if 0 < count < k:
            raise ValidationError(
                f"class {label} has {count} rows, fewer than k={k}; "
                f"use k <= {count}"
            )
    order = dataset.canonical_order()
    rng = np.random.default_rng(derive_seed(seed, "folds"))

    folds: list[list[int]] = [[] for _ in range(k)]
    for label in (0, 1):
        rows = order[dataset.labels[order] == label]
        if len(rows) == 0:
            continue
        rng.shuffle(rows)
        base, extra = divmod(len(rows), k)
        quota = np.full(k, base, dtype=int)
        # hand the remainder to the smallest folds so far (ties: low index)
        sizes = np.array([len(f) for f in folds])
        for j in np.argsort(sizes, kind="stable")[:extra]:
            quota[j] += 1
        pos = 0
        for j in range(k):
            folds[j].extend(rows[pos : pos + quota[j]].tolist())
            pos += quota[j]
    return [np.array(sorted(f), dtype=int) for f in folds]


def kfold_cv(
    dataset: Dataset,
    k: int,
    train_fns: list[Callable[[list[Dataset], list[int]], list]],
    seed: int,
    k_neighbors: int,
    deployed: list[tuple[Dataset, int]],
) -> list[tuple[Metrics, object]]:
    """Stratified k-fold CV of several learners on one split; returns, per
    learner, (metrics pooled over all test predictions, deployed model).

    One split is drawn from ``seed``, and SMOTE with ``k_neighbors``
    rebalances each training fold once (never the test fold). Every
    learner is scored on the same folds. ``train_fns[i]`` fits all the
    fold training sets, then the ``deployed[i]`` (dataset, seed) pair, in
    one call that returns one model per (dataset, seed) pair, so a learner
    may train them together. With ``k < 2`` no split is drawn: each call
    fits the deployed pair alone, and that model is scored on every row.
    """
    split = stratified_folds(dataset, k, seed) if k >= 2 else []
    folds = [(j, f) for j, f in enumerate(split) if len(f)]
    n = len(dataset)
    tested = np.zeros(n, dtype=bool)
    train_sets: list[Dataset] = []
    for j, test_idx in folds:
        tested[test_idx] = True
        train_mask = np.ones(n, dtype=bool)
        train_mask[test_idx] = False
        train_ds = dataset.subset(np.nonzero(train_mask)[0])
        if needs_smote(train_ds):
            train_ds = smote(train_ds, k_neighbors, derive_seed(seed, "smote", j))
        train_sets.append(train_ds)
    if folds and not tested.all():
        raise AssertionError("every row must appear in exactly one test fold")
    seeds = [derive_seed(seed, "fold", j) for j, _ in folds]
    # with no folds, the deployed model predicts every row (a slice: the dataset's own array)
    tests = [test_idx for _, test_idx in folds] or [slice(None)]

    results = []
    for train_fn, (deployed_set, deployed_seed) in zip(train_fns, deployed, strict=True):
        models = train_fn(train_sets + [deployed_set], seeds + [deployed_seed])
        if len(models) != len(train_sets) + 1:
            raise AssertionError("train_fn must return one model per dataset")
        all_preds = np.empty(n, dtype=int)
        for test_idx, model in zip(tests, models):
            all_preds[test_idx] = model.predict(dataset.vectors[test_idx])
        results.append((compute_metrics(all_preds, dataset.labels), models[-1]))
    return results
