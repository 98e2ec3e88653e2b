"""CART random forest and gradient-boosted trees, built from scratch.

Both learners share one level-wise grower that grows many trees at once:
a forest's trees, or the next boosting round of every dataset that
``train_gbt_many`` trains in lockstep (the folds of one CV). Each tree's
root carries its own binned rows, thresholds and target; each level's
histograms for every frontier node of every root come from one pair of
``bincount`` calls, and each tree is the one a one-root call grows. A
pass holds at most ``PASS_ROWS`` training rows, which bounds its memory.
Split candidates are the midpoints between distinct sorted feature
values, capped at 32 quantile bins per feature for large cardinalities;
search is exact over those candidates (Gini for classification, squared
error for regression).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..core import ValidationError
from .base import Dataset, ModelKind, derive_seed

MAX_BINS = 32
PASS_ROWS = 20_000  # training rows, summed over roots, grown in one pass


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


def _bin_columns(X: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
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
    return edges_list, binned


def _edge_table(edges: list[list[np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Candidate thresholds of every root as one (roots, d, width) array,
    padded to the widest root, plus the mask of real candidates.

    The width is at least 1, so a root whose features are all constant
    still has a (never valid) candidate and grows a single leaf.
    """
    width = max([1] + [len(e) for per_root in edges for e in per_root])
    values = np.array([[np.pad(e, (0, width - len(e))) for e in per_root] for per_root in edges])
    counts = np.array([[len(e) for e in per_root] for per_root in edges])
    return values, np.arange(width) < counts[:, :, None]


def _passes(sizes: list[int]) -> list[slice]:
    """Consecutive runs of roots with at most PASS_ROWS rows each; a root
    larger than that gets a pass of its own."""
    bounds, rows = [0], 0
    for i, size in enumerate(sizes):
        if i > bounds[-1] and rows + size > PASS_ROWS:
            bounds.append(i)
            rows = 0
        rows += size
    bounds.append(len(sizes))
    return [slice(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]


def _grow(
    binned: np.ndarray,
    root_rows: list[int],
    edge_values: np.ndarray,
    edge_ok: np.ndarray,
    target: np.ndarray,
    max_depth: int,
    classification: bool,
    rngs: list[np.random.Generator] | None = None,
    features_per_split: int = 0,
) -> tuple[list[_Tree], np.ndarray]:
    """Grow one tree per root, level by level, all roots at once.

    Rows are laid out root after root (``root_rows`` of them each) and
    ``edge_values``/``edge_ok`` hold each root's thresholds as built by
    ``_edge_table``. At each level, one ``bincount`` builds the row-count
    histograms and one the target-sum histograms of every frontier node of
    every root; a bin's rows are added in the order a one-root call adds
    them, so every sum, split and leaf is bit-identical to it. Split ties
    resolve to the lowest feature index, then lowest threshold (padding
    bins score -inf). With ``rngs``, each root draws its own
    ``random((frontier, d))`` per level below ``max_depth`` and keeps the
    ``features_per_split`` best-ranked features of each node.

    Returns the trees plus their outputs on the training rows (their
    final leaf values), which spares boosting a full predict per round.
    """
    n, d = binned.shape
    n_roots = len(root_rows)
    B = edge_values.shape[2] + 1

    node_root = np.arange(n_roots)
    feature = np.full(n_roots, -1, dtype=np.int64)
    threshold = np.zeros(n_roots)
    left = np.full(n_roots, -1, dtype=np.int64)
    right = np.full(n_roots, -1, dtype=np.int64)
    value = np.zeros(n_roots)

    row_node = np.repeat(np.arange(n_roots), root_rows)
    active = np.ones(n, dtype=bool)
    frontier = np.arange(n_roots)

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
        owner = node_root[frontier]
        score[(nL == 0) | (nR == 0) | ~edge_ok[owner]] = -np.inf

        if rngs is not None:
            per_root = np.bincount(owner, minlength=n_roots)
            draw = np.concatenate(
                [rngs[r].random((c, d)) for r, c in enumerate(per_root) if c]
            )
            ranks = np.argsort(np.argsort(draw, axis=1, kind="stable"), axis=1, kind="stable")
            score[ranks >= features_per_split] = -np.inf

        flat_score = score.reshape(m, -1)
        flat_best = flat_score.argmax(axis=1)
        best = flat_score[np.arange(m), flat_best]
        do_split = np.isfinite(best) & (best > parent + 1e-12)

        split_local = np.nonzero(do_split)[0]
        if split_local.size == 0:
            break
        split_nodes = frontier[split_local]
        f_best = flat_best[split_local] // (B - 1)
        b_best = flat_best[split_local] % (B - 1)

        n_split = split_local.size
        child_base = feature.size
        node_root = np.concatenate([node_root, np.repeat(owner[split_local], 2)])
        feature = np.concatenate([feature, np.full(2 * n_split, -1, dtype=np.int64)])
        threshold = np.concatenate([threshold, np.zeros(2 * n_split)])
        left = np.concatenate([left, np.full(2 * n_split, -1, dtype=np.int64)])
        right = np.concatenate([right, np.full(2 * n_split, -1, dtype=np.int64)])
        value = np.concatenate([value, np.zeros(2 * n_split)])

        feature[split_nodes] = f_best
        threshold[split_nodes] = edge_values[owner[split_local], f_best, b_best]
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

    # Split the node tables by root. A root's nodes, in global id order,
    # are its root and then its children level by level: the numbering a
    # one-root call gives them.
    order = np.argsort(node_root, kind="stable")
    counts = np.bincount(node_root, minlength=n_roots)
    local = np.empty_like(order)
    local[order] = np.arange(order.size) - np.repeat(np.cumsum(counts) - counts, counts)
    tables = [
        feature[order],
        threshold[order],
        np.where(left >= 0, local[left], -1)[order],
        np.where(right >= 0, local[right], -1)[order],
        value[order],
    ]
    ends = np.cumsum(counts).tolist()
    trees = [_Tree(*(t[a:b] for t in tables)) for a, b in zip([0] + ends, ends)]
    return trees, value[row_node]


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
    edges, binned = _bin_columns(X)
    edge_values, edge_ok = _edge_table([edges])
    trees: list[_Tree] = []
    for run in _passes([n] * n_trees):
        # one stream per tree: its bootstrap, then its per-level draws
        rngs = [
            np.random.default_rng(derive_seed(seed, "tree", t))
            for t in range(n_trees)[run]
        ]
        boot = np.concatenate([rng.integers(0, n, size=n) for rng in rngs])
        shape = (len(rngs),) + edge_values.shape[1:]
        grown, _ = _grow(
            binned[boot],
            [n] * len(rngs),
            np.broadcast_to(edge_values, shape),
            np.broadcast_to(edge_ok, shape),
            y[boot],
            max_depth=max_depth,
            classification=True,
            rngs=rngs if features_per_split < d else None,
            features_per_split=features_per_split,
        )
        trees.extend(grown)
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
    return train_gbt_many(
        [dataset],
        [seed],
        n_rounds=n_rounds,
        max_depth=max_depth,
        learning_rate=learning_rate,
    )[0]


def train_gbt_many(
    datasets: list[Dataset],
    seeds: list[int],
    n_rounds: int = 100,
    max_depth: int = 3,
    learning_rate: float = 0.1,
) -> list[GBTModel]:
    """``train_gbt`` on each dataset, boosted in lockstep.

    Each round grows the next tree of every dataset in one grower call
    (datasets are taken PASS_ROWS rows at a time), and model i equals
    ``train_gbt(datasets[i], seeds[i])``.
    """
    if len(seeds) != len(datasets):
        raise ValidationError(f"{len(datasets)} datasets but {len(seeds)} seeds")
    for dataset in datasets:
        zeros, ones = dataset.class_counts()
        if zeros == 0 or ones == 0:
            raise ValidationError(
                f"gradient boosting requires both classes, got {zeros} zeros / {ones} ones"
            )
    models: list[GBTModel] = []
    for run in _passes([len(ds) for ds in datasets]):
        models.extend(_boost(datasets[run], n_rounds, max_depth, learning_rate))
    return models


def _boost(
    datasets: list[Dataset], n_rounds: int, max_depth: int, learning_rate: float
) -> list[GBTModel]:
    """One pass of ``train_gbt_many``: each round grows one tree per dataset."""
    canon = [ds.canonicalized() for ds in datasets]
    labels = [ds.labels.astype(float) for ds in canon]
    init_scores = []
    for y in labels:
        base = y.mean()
        init_scores.append(float(np.log(base / (1.0 - base))))
    sizes = [len(y) for y in labels]
    ends = np.cumsum(sizes).tolist()

    edges, binned = zip(*(_bin_columns(ds.vectors.astype(float)) for ds in canon))
    edge_values, edge_ok = _edge_table(list(edges))
    binned = np.concatenate(binned)
    y = np.concatenate(labels)
    scores = np.repeat(init_scores, sizes)
    trees: list[list[_Tree]] = [[] for _ in canon]
    losses: list[list[float]] = [[] for _ in canon]
    for _ in range(n_rounds):
        resid = y - 1.0 / (1.0 + np.exp(-scores))
        grown, train_out = _grow(
            binned, sizes, edge_values, edge_ok, resid, max_depth, classification=False
        )
        scores = scores + learning_rate * train_out
        # mean log loss of each dataset, over its own rows
        loss = np.logaddexp(0.0, scores) - y * scores
        for r, (a, b) in enumerate(zip([0] + ends, ends)):
            trees[r].append(grown[r])
            losses[r].append(float(loss[a:b].mean()))

    return [
        GBTModel(
            init_score=init_score,
            learning_rate=learning_rate,
            trees=t,
            train_log_loss=loss_list,
        )
        for init_score, t, loss_list in zip(init_scores, trees, losses)
    ]
