"""CART random forest and gradient-boosted trees, built from scratch.

Both learners share one level-wise tree grower. Split candidates are the
midpoints between distinct sorted feature values, capped at 32 quantile
bins per feature for large cardinalities; search is exact over those
candidates (Gini for classification, squared error for regression).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..core import ValidationError
from .base import Dataset, ModelKind, derive_seed

MAX_BINS = 32


@dataclass
class _Tree:
    feature: np.ndarray  # (n_nodes,) int, -1 at leaves
    threshold: np.ndarray  # (n_nodes,) float
    left: np.ndarray  # (n_nodes,) int child ids, -1 at leaves
    right: np.ndarray
    value: np.ndarray  # (n_nodes,) float leaf outputs

    def to_json(self) -> dict:
        def node(i: int) -> dict:
            if self.left[i] < 0:
                return {"leaf": float(self.value[i])}
            return {
                "feature": int(self.feature[i]),
                "threshold": float(self.threshold[i]),
                "left": node(int(self.left[i])),
                "right": node(int(self.right[i])),
            }

        return node(0)

    @classmethod
    def from_json(cls, doc: dict) -> "_Tree":
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []

        def build(node: dict) -> int:
            i = len(feature)
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(0.0)
            if "leaf" in node:
                value[i] = float(node["leaf"])
            else:
                feature[i] = int(node["feature"])
                threshold[i] = float(node["threshold"])
                left[i] = build(node["left"])
                right[i] = build(node["right"])
            return i

        build(doc)
        return cls(
            feature=np.array(feature, dtype=np.int64),
            threshold=np.array(threshold, dtype=float),
            left=np.array(left, dtype=np.int64),
            right=np.array(right, dtype=np.int64),
            value=np.array(value, dtype=float),
        )


def _stack_trees(trees: list[_Tree]) -> dict:
    """Concatenate tree node tables so prediction walks all trees at once."""
    offsets = np.cumsum([0] + [t.feature.size for t in trees[:-1]], dtype=np.int64)
    feature = np.concatenate([t.feature for t in trees])
    threshold = np.concatenate([t.threshold for t in trees])
    left = np.concatenate(
        [np.where(t.left >= 0, t.left + off, -1) for t, off in zip(trees, offsets)]
    )
    right = np.concatenate(
        [np.where(t.right >= 0, t.right + off, -1) for t, off in zip(trees, offsets)]
    )
    value = np.concatenate([t.value for t in trees])
    return {
        "roots": offsets,
        "feature": feature,
        "threshold": threshold,
        "left": left,
        "right": right,
        "value": value,
    }


def _stacked_predict(stack: dict, X: np.ndarray) -> np.ndarray:
    """Leaf values of every tree for every row; shape (n_rows, n_trees)."""
    n = X.shape[0]
    idx = np.broadcast_to(stack["roots"], (n, stack["roots"].size)).copy()
    rows = np.arange(n)[:, None]
    for _ in range(64):  # depth is bounded far below this
        internal = stack["left"][idx] >= 0
        if not internal.any():
            break
        feat = np.where(internal, stack["feature"][idx], 0)
        go_left = X[rows, feat] <= stack["threshold"][idx]
        nxt = np.where(go_left, stack["left"][idx], stack["right"][idx])
        idx = np.where(internal, nxt, idx)
    return stack["value"][idx]


def _bin_columns(X: np.ndarray) -> tuple[list[np.ndarray], np.ndarray, int]:
    """Per-feature candidate thresholds and the bin index of every value."""
    n, d = X.shape
    edges_list: list[np.ndarray] = []
    binned = np.zeros((n, d), dtype=np.int64)
    for f in range(d):
        vals = X[:, f]
        uniq = np.unique(vals)
        if len(uniq) <= 1:
            edges = np.empty(0)
        elif len(uniq) <= MAX_BINS:
            edges = (uniq[:-1] + uniq[1:]) / 2.0
        else:
            qs = np.linspace(0.0, 1.0, MAX_BINS + 1)[1:-1]
            edges = np.unique(np.quantile(vals, qs))
        # bin b holds values v with edges[b-1] < v <= edges[b]
        binned[:, f] = np.searchsorted(edges, vals, side="left")
        edges_list.append(edges)
    n_bins = max(len(e) for e in edges_list) + 1
    return edges_list, binned, n_bins


def _grow_tree(
    binned: np.ndarray,
    edges_list: list[np.ndarray],
    target: np.ndarray,
    max_depth: int,
    features_per_split: int,
    rng: np.random.Generator | None,
    classification: bool,
) -> tuple[_Tree, np.ndarray]:
    """Level-wise growth, vectorized across all nodes of a level.

    Split ties resolve to the lowest feature index, then lowest threshold.
    Returns the tree plus its outputs on the training rows (their final
    leaf values), which spares boosting a full predict per round.
    """
    n, d = binned.shape
    B = max(len(e) for e in edges_list) + 1
    edge_ok = np.zeros((d, max(B - 1, 1)), dtype=bool)
    edge_values = np.zeros((d, max(B - 1, 1)))
    for f, e in enumerate(edges_list):
        edge_ok[f, : len(e)] = True
        edge_values[f, : len(e)] = e

    feature = np.full(1, -1, dtype=np.int64)
    threshold = np.zeros(1)
    left = np.full(1, -1, dtype=np.int64)
    right = np.full(1, -1, dtype=np.int64)
    value = np.zeros(1)

    row_node = np.zeros(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    frontier = np.array([0], dtype=np.int64)

    for depth in range(max_depth + 1):
        if frontier.size == 0:
            break
        m = frontier.size
        lookup = np.full(feature.size, -1, dtype=np.int64)
        lookup[frontier] = np.arange(m)
        rows = np.nonzero(active)[0]
        loc = lookup[row_node[rows]]

        flat = ((loc[:, None] * d + np.arange(d)[None, :]) * B + binned[rows]).ravel()
        size = m * d * B
        cnt = np.bincount(flat, minlength=size).reshape(m, d, B).astype(float)
        wgt = np.bincount(
            flat, weights=np.repeat(target[rows], d), minlength=size
        ).reshape(m, d, B)

        cum_n = np.cumsum(cnt, axis=2)
        cum_w = np.cumsum(wgt, axis=2)
        node_n = cum_n[:, 0, -1]
        node_w = cum_w[:, 0, -1]

        # Leaf outputs for every frontier node (kept unless the node splits).
        if classification:
            value[frontier] = (2.0 * node_w >= node_n).astype(float)
        else:
            value[frontier] = node_w / np.maximum(node_n, 1.0)

        if depth == max_depth:
            break

        nL = cum_n[:, :, :-1]
        wL = cum_w[:, :, :-1]
        nR = node_n[:, None, None] - nL
        wR = node_w[:, None, None] - wL
        with np.errstate(divide="ignore", invalid="ignore"):
            if classification:
                score = (wL**2 + (nL - wL) ** 2) / nL + (wR**2 + (nR - wR) ** 2) / nR
                parent = (node_w**2 + (node_n - node_w) ** 2) / node_n
            else:
                score = wL**2 / nL + wR**2 / nR
                parent = node_w**2 / node_n
        invalid = (nL == 0) | (nR == 0) | ~edge_ok[None, :, : B - 1]
        score[invalid] = -np.inf

        if features_per_split < d and rng is not None:
            draw = rng.random((m, d))
            ranks = np.argsort(np.argsort(draw, axis=1, kind="stable"), axis=1, kind="stable")
            score[(ranks >= features_per_split)[:, :, None] & np.ones((1, 1, B - 1), bool)] = -np.inf

        flat_score = score.reshape(m, -1)
        flat_best = flat_score.argmax(axis=1)
        best = flat_score[np.arange(m), flat_best]
        do_split = np.isfinite(best) & (best > parent + 1e-12)

        split_local = np.nonzero(do_split)[0]
        if split_local.size == 0:
            active[rows] = False
            break
        split_nodes = frontier[split_local]
        f_best = flat_best[split_local] // (B - 1)
        b_best = flat_best[split_local] % (B - 1)

        n_split = split_local.size
        child_base = feature.size
        feature = np.concatenate([feature, np.full(2 * n_split, -1, dtype=np.int64)])
        threshold = np.concatenate([threshold, np.zeros(2 * n_split)])
        left = np.concatenate([left, np.full(2 * n_split, -1, dtype=np.int64)])
        right = np.concatenate([right, np.full(2 * n_split, -1, dtype=np.int64)])
        value = np.concatenate([value, np.zeros(2 * n_split)])

        feature[split_nodes] = f_best
        threshold[split_nodes] = edge_values[f_best, b_best]
        left[split_nodes] = child_base + 2 * np.arange(n_split)
        right[split_nodes] = child_base + 2 * np.arange(n_split) + 1

        split_bin = np.zeros(feature.size, dtype=np.int64)
        split_bin[split_nodes] = b_best

        row_split = do_split[loc]
        active[rows[~row_split]] = False
        sub_rows = rows[row_split]
        parents = row_node[sub_rows]
        go_left = binned[sub_rows, feature[parents]] <= split_bin[parents]
        row_node[sub_rows] = np.where(go_left, left[parents], right[parents])

        frontier = child_base + np.arange(2 * n_split, dtype=np.int64)

    tree = _Tree(
        feature=feature,
        threshold=threshold,
        left=left,
        right=right,
        value=value,
    )
    return tree, value[row_node]


@dataclass(frozen=True)
class ForestModel:
    trees: list[_Tree]

    kind = ModelKind.RANDOM_FOREST

    @cached_property
    def _stack(self) -> dict:
        return _stack_trees(self.trees)

    def predict(self, X: np.ndarray) -> np.ndarray:
        votes = _stacked_predict(self._stack, np.asarray(X, dtype=float)).sum(axis=1)
        # majority of tree votes; exact tie predicts lonely (1)
        return (2.0 * votes >= len(self.trees)).astype(int)

    def to_json(self) -> dict:
        return {"trees": [t.to_json() for t in self.trees]}

    @classmethod
    def from_json(cls, doc: dict) -> "ForestModel":
        return cls(trees=[_Tree.from_json(t) for t in doc["trees"]])


def train_random_forest(
    dataset: Dataset, seed: int = 0, n_trees: int = 100, max_depth: int = 8
) -> ForestModel:
    """Bagged CART trees: Gini splits, sqrt(d) features per split.

    Rows are canonicalized before any seeded draw, so the forest is
    independent of input row order. Single-class data is allowed and
    yields a constant predictor.
    """
    if len(dataset) == 0:
        raise ValidationError("random forest requires a nonempty dataset")
    ds = dataset.canonicalized()
    X = ds.vectors.astype(float)
    y = ds.labels.astype(float)
    n, d = X.shape
    features_per_split = max(1, int(np.sqrt(d)))

    # candidate thresholds come from the full training data; each bootstrap
    # then selects rows of the pre-binned matrix
    edges_list, binned, _ = _bin_columns(X)
    trees: list[_Tree] = []
    for t in range(n_trees):
        rng = np.random.default_rng(derive_seed(seed, "tree", t))
        boot = rng.integers(0, n, size=n)
        tree, _ = _grow_tree(
            binned[boot],
            edges_list,
            y[boot],
            max_depth=max_depth,
            features_per_split=features_per_split,
            rng=rng,
            classification=True,
        )
        trees.append(tree)
    return ForestModel(trees=trees)


@dataclass(frozen=True)
class GBTModel:
    init_score: float
    learning_rate: float
    trees: list[_Tree]
    train_log_loss: list[float] = field(default_factory=list)

    kind = ModelKind.GBT

    @cached_property
    def _stack(self) -> dict:
        return _stack_trees(self.trees)

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        scores = np.full(X.shape[0], self.init_score)
        if self.trees:
            leaf = _stacked_predict(self._stack, np.asarray(X, dtype=float))
            scores = scores + self.learning_rate * leaf.sum(axis=1)
        return scores

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (1.0 / (1.0 + np.exp(-self.decision_scores(X))) >= 0.5).astype(int)

    def to_json(self) -> dict:
        return {
            "init_score": self.init_score,
            "learning_rate": self.learning_rate,
            "train_log_loss": list(self.train_log_loss),
            "trees": [t.to_json() for t in self.trees],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "GBTModel":
        return cls(
            init_score=float(doc["init_score"]),
            learning_rate=float(doc["learning_rate"]),
            trees=[_Tree.from_json(t) for t in doc["trees"]],
            train_log_loss=[float(x) for x in doc["train_log_loss"]],
        )


def _log_loss(y: np.ndarray, scores: np.ndarray) -> float:
    return float((np.logaddexp(0.0, scores) - y * scores).mean())


def train_gbt(
    dataset: Dataset,
    seed: int = 0,
    n_rounds: int = 100,
    max_depth: int = 3,
    learning_rate: float = 0.1,
) -> GBTModel:
    """Additive regression trees fit to logistic-loss gradients.

    First-order boosting only: each round fits a squared-error tree to the
    residual y - sigmoid(score) and adds it with a fixed learning rate.
    The initial score is the log-odds of the training base rate. Training
    is deterministic; ``seed`` is part of the shared trainer signature.
    """
    zeros, ones = dataset.class_counts()
    if zeros == 0 or ones == 0:
        raise ValidationError(
            f"gradient boosting requires both classes, got {zeros} zeros / {ones} ones"
        )
    ds = dataset.canonicalized()
    X = ds.vectors.astype(float)
    y = ds.labels.astype(float)

    base = y.mean()
    init_score = float(np.log(base / (1.0 - base)))
    scores = np.full(len(y), init_score)

    edges_list, binned, _ = _bin_columns(X)
    trees: list[_Tree] = []
    losses: list[float] = []
    for _ in range(n_rounds):
        resid = y - 1.0 / (1.0 + np.exp(-scores))
        tree, train_out = _grow_tree(
            binned,
            edges_list,
            resid,
            max_depth=max_depth,
            features_per_split=X.shape[1],
            rng=None,
            classification=False,
        )
        trees.append(tree)
        scores = scores + learning_rate * train_out
        losses.append(_log_loss(y, scores))

    return GBTModel(
        init_score=init_score,
        learning_rate=learning_rate,
        trees=trees,
        train_log_loss=losses,
    )
