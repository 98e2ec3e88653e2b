"""CART random forest and gradient-boosted trees, built from scratch.

Both learners share one level-wise grower that grows many trees at once:
the trees of every forest that ``train_random_forest_many`` trains (the
folds of one CV and the deployed fit), or the next boosting round of
every dataset that ``train_gbt_many`` trains in lockstep. Each tree's
root carries its own binned rows, thresholds and target; each level's
histograms for every frontier node of every root come from one pair of
``bincount`` calls, and each tree is the one a one-root call grows. A
forest tree grows on the distinct rows of its bootstrap, each weighted
by its draw count, and a node bins only the features it drew; the last
level bins one feature, since leaves read node totals only. Every
forest draw, bootstrap row or feature rank, is a hash of (tree key,
purpose, counter), so no tree needs a generator of its own. A pass
holds at most ``PASS_ROWS`` training rows (bootstrap draws, for a
forest), which bounds its memory. A model keeps all its trees in one
stacked ``NodeTable``, gathered from the grower's raw node tables by one
stable sort per trainer call. Split candidates are the midpoints between
distinct sorted feature values, capped at 32 quantile bins per feature
for large cardinalities; search is exact over those candidates (Gini
for classification, squared error for regression).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import ValidationError
from .base import Dataset, ModelKind, check_batch

MAX_BINS = 32
PASS_ROWS = 20_000  # training rows, summed over roots, grown in one pass

# SplitMix64's increment and finalizer multipliers (Steele, Lea & Flood 2014)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def _hash(*words) -> np.ndarray:
    """SplitMix64's finalizer folded over ``words``, ints or integer arrays
    that broadcast together. One must be an array: uint64 scalar products
    warn on the wraparound the hash relies on. Each step is a bijection of
    its word, so words that differ only in the last one never collide."""
    h = np.zeros(np.broadcast_shapes(*(np.shape(w) for w in words)), dtype=np.uint64)
    for w in words:
        z = h ^ (np.asarray(w, dtype=np.uint64) + _GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * _MIX_1
        z = (z ^ (z >> np.uint64(27))) * _MIX_2
        h = z ^ (z >> np.uint64(31))
    return h


def _tree_keys(seed: int, n_trees: int) -> np.ndarray:
    """The key of each tree of a forest seeded with ``seed``."""
    return _hash(seed % 2**64, np.arange(n_trees))


def _bootstrap(keys: np.ndarray, sizes: list[int]) -> np.ndarray:
    """Tree after tree, the ``sizes[t]`` bootstrap draws of tree ``keys[t]``
    from ``range(sizes[t])``: draw j scales the hash's high 32 bits."""
    n = np.repeat(np.asarray(sizes, dtype=np.uint64), sizes)
    j = np.arange(n.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    high = _hash(np.repeat(keys, sizes), 0, j) >> np.uint64(32)
    return ((high * n) >> np.uint64(32)).astype(np.int64)


def _drawn_features(
    keys: np.ndarray, depth: int, place: np.ndarray, d: int, k: int
) -> np.ndarray:
    """The ``k`` of ``d`` features, ascending, drawn by the node at
    ``place`` among the depth-``depth`` nodes of tree ``keys[i]``: the
    ``k`` lowest hashes of (key, depth + 1, place, feature)."""
    ranks = _hash(keys[:, None], depth + 1, place[:, None], np.arange(d))
    return np.sort(np.argsort(ranks, axis=1, kind="stable")[:, :k], axis=1)


@dataclass(frozen=True)
class NodeTable:
    """The nodes of a model's trees in one table, grouped tree by tree.

    ``roots`` holds the index of each tree's root; child ids index the
    table itself, so prediction walks every tree at once.
    """

    roots: np.ndarray  # (n_trees,) int
    feature: np.ndarray  # (n_nodes,) int, -1 at leaves
    threshold: np.ndarray  # (n_nodes,) float
    left: np.ndarray  # (n_nodes,) int child ids, -1 at leaves
    right: np.ndarray
    value: np.ndarray  # (n_nodes,) float leaf outputs

    def leaves(self, X: np.ndarray) -> np.ndarray:
        """Leaf values of every tree for every row; shape (n_rows, n_trees)."""
        n = X.shape[0]
        idx = np.broadcast_to(self.roots, (n, self.roots.size)).copy()
        rows = np.arange(n)[:, None]
        for _ in range(64):  # depth is bounded far below this
            internal = self.left[idx] >= 0
            if not internal.any():
                break
            feat = np.where(internal, self.feature[idx], 0)
            go_left = X[rows, feat] <= self.threshold[idx]
            nxt = np.where(go_left, self.left[idx], self.right[idx])
            idx = np.where(internal, nxt, idx)
        return self.value[idx]

    def check_input_dim(self, input_dim: int) -> None:
        """Raise ValidationError unless every split reads a feature of an
        ``input_dim``-wide vector at a finite threshold."""
        split = self.left >= 0
        bad = split & ((self.feature < 0) | (self.feature >= input_dim))
        if bad.any():
            raise ValidationError(
                f"tree split on feature {int(self.feature[bad][0])}, "
                f"outside [0, {input_dim})"
            )
        if not np.isfinite(self.threshold[split]).all():
            raise ValidationError("tree split threshold is not finite")

    def to_json(self) -> list[dict]:
        feature, threshold, left, right, value = (
            a.tolist() for a in (self.feature, self.threshold, self.left, self.right, self.value)
        )

        def node(i: int) -> dict:
            if left[i] < 0:
                return {"leaf": value[i]}
            return {
                "feature": feature[i],
                "threshold": threshold[i],
                "left": node(left[i]),
                "right": node(right[i]),
            }

        return [node(r) for r in self.roots.tolist()]

    @classmethod
    def from_json(cls, docs: list[dict]) -> "NodeTable":
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

        roots = [build(doc) for doc in docs]
        return cls(
            roots=np.array(roots, dtype=np.int64),
            feature=np.array(feature, dtype=np.int64),
            threshold=np.array(threshold, dtype=float),
            left=np.array(left, dtype=np.int64),
            right=np.array(right, dtype=np.int64),
            value=np.array(value, dtype=float),
        )


def _collect(parts: list[tuple], n_models: int, trees_per_model: int) -> list[NodeTable]:
    """Group the raw node tables of ``_grow`` calls into one table per model.

    Each part is ``(tree id, feature, threshold, left, right, value)`` per
    node, with child ids local to its call; model m holds trees
    ``m * trees_per_model`` onward. One stable argsort groups the nodes by
    tree, which keeps each tree's nodes in the order its call numbered
    them: its root, then its children level by level. Each model gathers
    its own rows, so it keeps none of the other models' nodes alive.
    """
    sizes = np.array([p[0].size for p in parts], dtype=np.int64)
    tree, feature, threshold, left, right, value = (
        np.concatenate([np.empty(0, dtype=dt)] + [p[c] for p in parts])
        for c, dt in enumerate((np.int64, np.int64, float, np.int64, np.int64, float))
    )
    offset = np.repeat(np.cumsum(sizes) - sizes, sizes)
    order = np.argsort(tree, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    # child ids as positions in the grouped order; leaves keep -1
    left = np.where(left >= 0, position[left + offset], -1)
    right = np.where(right >= 0, position[right + offset], -1)
    counts = np.bincount(tree, minlength=n_models * trees_per_model)
    starts = np.concatenate([[0], np.cumsum(counts)])
    tables = []
    for m in range(n_models):
        first = starts[m * trees_per_model : (m + 1) * trees_per_model + 1]
        a = first[0]
        rows = order[a : first[-1]]
        tables.append(
            NodeTable(
                roots=first[:-1] - a,
                feature=feature[rows],
                threshold=threshold[rows],
                left=np.where(left[rows] >= 0, left[rows] - a, -1),
                right=np.where(right[rows] >= 0, right[rows] - a, -1),
                value=value[rows],
            )
        )
    return tables


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
    weight: np.ndarray,
    tree_ids: np.ndarray,
    max_depth: int,
    classification: bool,
    keys: np.ndarray | None = None,
    features_per_split: int = 0,
) -> tuple[tuple, np.ndarray]:
    """Grow one tree per root, level by level, all roots at once.

    Rows are laid out root after root (``root_rows`` of them each), each
    row counting ``weight`` times, and ``edge_values``/``edge_ok`` hold
    each root's thresholds as built by ``_edge_table``. At each level, one
    weighted ``bincount`` builds the count histograms and one the target-sum
    histograms of every frontier node of every root, over the node's
    candidate features only: every feature, or with ``keys`` (one per
    root) the ``features_per_split`` that ``_drawn_features`` draws for
    each node below ``max_depth``. A node's draw reads its position among
    its root's frontier nodes, which lie root after root, so it does not
    depend on the other roots of the pass. The leaf level
    reads node totals only, so it bins feature 0 alone. A bin's rows are
    added in ascending row order, as a one-root call adds them, and weights
    and 0/1 targets keep forest sums integral, so every sum, split and leaf
    is bit-identical to it. Split ties resolve to the lowest feature index,
    then lowest threshold (padding bins score -inf).

    Returns the raw node table, each node tagged with its root's entry of
    ``tree_ids``, in the layout ``_collect`` takes, plus the trees' outputs
    on the training rows (their final leaf values), which spares boosting
    a full predict per round.
    """
    n, d = binned.shape
    n_roots = len(root_rows)
    B = edge_values.shape[2] + 1
    weighted = weight * target
    offset = binned + np.arange(d) * B  # feature f's bins follow those of lower features

    node_root = np.arange(n_roots)
    feature = np.full(n_roots, -1, dtype=np.int64)
    threshold = np.zeros(n_roots)
    left = np.full(n_roots, -1, dtype=np.int64)
    right = np.full(n_roots, -1, dtype=np.int64)
    value = np.zeros(n_roots)

    row_node = np.repeat(np.arange(n_roots), root_rows)
    rows = np.arange(n)  # the rows of frontier nodes, ascending
    frontier = np.arange(n_roots)

    for depth in range(max_depth + 1):
        m = frontier.size
        lookup = np.full(feature.size, -1, dtype=np.int64)
        lookup[frontier] = np.arange(m)
        loc = lookup[row_node[rows]]
        owner = node_root[frontier]

        # each node's candidate features, ascending
        if depth == max_depth:
            feats = np.zeros((m, 1), dtype=np.int64)
        elif keys is None:
            feats = np.arange(d)[None, :].repeat(m, axis=0)
        else:
            per_root = np.bincount(owner, minlength=n_roots)
            place = np.arange(m) - (np.cumsum(per_root) - per_root)[owner]
            feats = _drawn_features(keys[owner], depth, place, d, features_per_split)
        k = feats.shape[1]

        if k == d:  # every feature, in order
            flat = (loc * (d * B))[:, None] + offset[rows]
        else:
            flat = ((loc * k)[:, None] + np.arange(k)) * B + binned[rows[:, None], feats[loc]]
        flat = flat.ravel()
        size = m * k * B
        cnt = np.bincount(flat, weights=np.repeat(weight[rows], k), minlength=size)
        wgt = np.bincount(flat, weights=np.repeat(weighted[rows], k), minlength=size)

        cum_n = np.cumsum(cnt.reshape(m, k, B), axis=2)
        cum_w = np.cumsum(wgt.reshape(m, k, B), axis=2)
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
        score[(nL == 0) | (nR == 0) | ~edge_ok[owner[:, None], feats]] = -np.inf

        flat_score = score.reshape(m, -1)
        flat_best = flat_score.argmax(axis=1)
        best = flat_score[np.arange(m), flat_best]
        do_split = np.isfinite(best) & (best > parent + 1e-12)

        split_local = np.nonzero(do_split)[0]
        if split_local.size == 0:
            break
        split_nodes = frontier[split_local]
        f_best = feats[split_local, flat_best[split_local] // (B - 1)]
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

        rows = rows[do_split[loc]]
        parents = row_node[rows]
        go_left = binned[rows, feature[parents]] <= split_bin[parents]
        row_node[rows] = np.where(go_left, left[parents], right[parents])

        frontier = child_base + np.arange(2 * n_split, dtype=np.int64)

    return (tree_ids[node_root], feature, threshold, left, right, value), value[row_node]


@dataclass(frozen=True)
class ForestModel:
    nodes: NodeTable

    kind = ModelKind.RANDOM_FOREST

    def predict(self, X: np.ndarray) -> np.ndarray:
        votes = self.nodes.leaves(np.asarray(X, dtype=float)).sum(axis=1)
        # majority of tree votes; exact tie predicts lonely (1)
        return (2.0 * votes >= self.nodes.roots.size).astype(int)

    def check_input_dim(self, input_dim: int) -> None:
        self.nodes.check_input_dim(input_dim)

    def to_json(self) -> dict:
        return {"trees": self.nodes.to_json()}

    @classmethod
    def from_json(cls, doc: dict) -> "ForestModel":
        return cls(nodes=NodeTable.from_json(doc["trees"]))


def train_random_forest(
    dataset: Dataset, seed: int = 0, n_trees: int = 100, max_depth: int = 8
) -> ForestModel:
    """Bagged CART trees: Gini splits, sqrt(d) features per split.

    Rows are canonicalized before any seeded draw, so the forest is
    independent of input row order. Single-class data is allowed and
    yields a constant predictor.
    """
    return train_random_forest_many([dataset], [seed], n_trees=n_trees, max_depth=max_depth)[0]


def train_random_forest_many(
    datasets: list[Dataset], seeds: list[int], n_trees: int = 100, max_depth: int = 8
) -> list[ForestModel]:
    """``train_random_forest`` on each dataset, all trees grown together.

    The trees of every dataset are laid out dataset after dataset and
    grown PASS_ROWS rows at a time, so a pass may hold trees of several
    datasets; each root reads its own dataset's thresholds. Model i equals
    ``train_random_forest(datasets[i], seeds[i])``.
    """
    check_batch(datasets, seeds, "random forest")
    if any(len(ds) == 0 for ds in datasets):
        raise ValidationError("random forest requires a nonempty dataset")
    if not datasets:
        return []
    canon = [ds.canonicalized() for ds in datasets]
    d = canon[0].dim
    features_per_split = max(1, int(np.sqrt(d)))
    sizes = [len(ds) for ds in canon]
    starts = np.cumsum([0] + sizes[:-1])

    # candidate thresholds come from each dataset's full training data; each
    # bootstrap then selects rows of its dataset's pre-binned matrix
    edges, binned = zip(*(_bin_columns(ds.vectors.astype(float)) for ds in canon))
    edge_values, edge_ok = _edge_table(list(edges))
    binned = np.concatenate(binned)
    y = np.concatenate([ds.labels.astype(float) for ds in canon])

    # tree t of dataset i is root i * n_trees + t
    owner = np.repeat(np.arange(len(canon)), n_trees)
    keys = np.concatenate([_tree_keys(seed, n_trees) for seed in seeds])
    root_rows = [sizes[i] for i in owner.tolist()]
    parts = []
    for run in _passes(root_rows):
        sizes_run = root_rows[run]
        slot_start = np.cumsum([0] + sizes_run[:-1])  # each tree's first slot
        draws = _bootstrap(keys[run], sizes_run)
        counts = np.bincount(draws + np.repeat(slot_start, sizes_run), minlength=len(draws))
        # each tree keeps its distinct rows, ascending, weighted by their counts
        slots = np.nonzero(counts)[0]
        tree = np.repeat(np.arange(len(sizes_run)), sizes_run)[slots]
        rows = slots + (starts[owner[run]] - slot_start)[tree]
        part, _ = _grow(
            binned[rows],
            np.bincount(tree, minlength=len(sizes_run)).tolist(),
            edge_values[owner[run]],
            edge_ok[owner[run]],
            y[rows],
            counts[slots].astype(float),
            np.arange(len(owner))[run],
            max_depth=max_depth,
            classification=True,
            keys=keys[run] if features_per_split < d else None,
            features_per_split=features_per_split,
        )
        parts.append(part)
    return [ForestModel(nodes) for nodes in _collect(parts, len(canon), n_trees)]


@dataclass(frozen=True)
class GBTModel:
    init_score: float
    learning_rate: float
    nodes: NodeTable

    kind = ModelKind.GBT

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        scores = np.full(X.shape[0], self.init_score)
        if self.nodes.roots.size:
            leaf = self.nodes.leaves(np.asarray(X, dtype=float))
            scores = scores + self.learning_rate * leaf.sum(axis=1)
        return scores

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (1.0 / (1.0 + np.exp(-self.decision_scores(X))) >= 0.5).astype(int)

    def check_input_dim(self, input_dim: int) -> None:
        self.nodes.check_input_dim(input_dim)

    def to_json(self) -> dict:
        return {
            "init_score": self.init_score,
            "learning_rate": self.learning_rate,
            "trees": self.nodes.to_json(),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "GBTModel":
        return cls(
            init_score=float(doc["init_score"]),
            learning_rate=float(doc["learning_rate"]),
            nodes=NodeTable.from_json(doc["trees"]),
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
    check_batch(datasets, seeds, "gradient boosting")
    for dataset in datasets:
        zeros, ones = dataset.class_counts()
        if zeros == 0 or ones == 0:
            raise ValidationError(
                f"gradient boosting requires both classes, got {zeros} zeros / {ones} ones"
            )
    init_scores: list[float] = []
    parts: list[tuple] = []
    for run in _passes([len(ds) for ds in datasets]):
        scores, grown = _boost(datasets[run], run.start, n_rounds, max_depth, learning_rate)
        init_scores.extend(scores)
        parts.extend(grown)
    return [
        GBTModel(init_score=init_score, learning_rate=learning_rate, nodes=nodes)
        for init_score, nodes in zip(init_scores, _collect(parts, len(datasets), n_rounds))
    ]


def _boost(
    datasets: list[Dataset], first: int, n_rounds: int, max_depth: int, learning_rate: float
) -> tuple[list[float], list[tuple]]:
    """One pass of ``train_gbt_many``: each round grows one tree per dataset.

    Dataset r of the pass is dataset ``first + r`` of the call, and its
    tree of round k gets tree id ``(first + r) * n_rounds + k``. Returns
    the initial scores and the raw node tables.
    """
    canon = [ds.canonicalized() for ds in datasets]
    labels = [ds.labels.astype(float) for ds in canon]
    init_scores = []
    for y in labels:
        base = y.mean()
        init_scores.append(float(np.log(base / (1.0 - base))))
    root_rows = [len(y) for y in labels]

    edges, binned = zip(*(_bin_columns(ds.vectors.astype(float)) for ds in canon))
    edge_values, edge_ok = _edge_table(list(edges))
    binned = np.concatenate(binned)
    y = np.concatenate(labels)
    scores = np.repeat(init_scores, root_rows)
    first_ids = (first + np.arange(len(canon))) * n_rounds
    ones = np.ones(len(y))
    parts = []
    for k in range(n_rounds):
        resid = y - 1.0 / (1.0 + np.exp(-scores))
        part, train_out = _grow(
            binned, root_rows, edge_values, edge_ok, resid, ones, first_ids + k, max_depth,
            classification=False,
        )
        parts.append(part)
        scores = scores + learning_rate * train_out
    return init_scores, parts
