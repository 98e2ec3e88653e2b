"""CART random forest and gradient-boosted trees, built from scratch.

Each trainer takes a list of datasets and returns one model per dataset,
as if each were trained alone. Both learners share one level-wise grower
that grows many trees at once: the trees of every forest of a
``train_random_forest`` call (the folds of one CV and the deployed fit),
or the next boosting round of every dataset of a ``train_gbt`` call, in
lockstep. A one-dataset fit is a call with a one-element list. The grower
reads a row's bin indices and label only, so each call groups its rows by
(dataset, bin vector, label) once, and trees grow on groups weighted by
row counts: a forest tree on the groups its bootstrap drew, each weighted
by its draws, and a boosting round on every group, with one score and
residual per group. Each tree's root carries its own groups, thresholds
and target; each level's histograms for every frontier node of every
root come from one pair of ``bincount`` calls, and each tree is the one
a one-root call grows. A forest node bins only the features it drew; the
last level bins one feature, since leaves read node totals only. Every
forest draw, bootstrap row or feature rank, is a hash of (tree key,
purpose, counter), so no tree needs a generator of its own; the hash of
a prefix that many draws share is folded once. ``PASS_ROWS`` bounds
memory twice over: a forest draws its bootstraps in chunks of at most
that many draws, and a grower pass holds at most that many rows, the
(tree, group) slots the draws hit for a forest, groups for GBT. A tree
with more rows than that gets a pass of its own. Before its node
tables are gathered, a pass turns every split whose two children are
leaves of one value into a leaf, until none is left; no prediction of
either kind changes. A model keeps all its trees in one stacked
``NodeTable``, gathered from the grower's raw node tables by one stable
sort per trainer call. Each trainer call bins each of its datasets once,
from one sort per column with its zeros unsigned, so no edge or bin
depends on row order. Split candidates are the midpoints between
distinct sorted feature values, capped at 32 quantile bins per feature
for large cardinalities; search is exact over those candidates (Gini
for classification, squared error for regression).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import ValidationError
from .base import Dataset, check_batch, require_both_classes

MAX_BINS = 32
# bootstrap draws per forest chunk; (tree, group) slots or GBT groups,
# summed over roots, per grower pass
PASS_ROWS = 20_000

# SplitMix64's increment and finalizer multipliers (Steele, Lea & Flood 2014)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def _fold(h: np.ndarray, w) -> np.ndarray:
    """One step of SplitMix64's finalizer: the word ``w``, an int or an
    integer array, folded into the hashes ``h``. It is a bijection of
    ``w``, so words that differ never collide."""
    z = h ^ (np.asarray(w, dtype=np.uint64) + _GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * _MIX_1
    z = (z ^ (z >> np.uint64(27))) * _MIX_2
    return z ^ (z >> np.uint64(31))


def _hash(*words) -> np.ndarray:
    """``_fold`` over ``words``, ints or integer arrays that broadcast
    together, from zero. One must be an array: uint64 scalar products warn
    on the wraparound the hash relies on. A hash of a prefix of the words
    can be folded on, so a prefix shared by many hashes is folded once."""
    h = np.zeros(np.broadcast_shapes(*(np.shape(w) for w in words)), dtype=np.uint64)
    for w in words:
        h = _fold(h, w)
    return h


def _tree_keys(seed: int, n_trees: int) -> np.ndarray:
    """The key of each tree of a forest seeded with ``seed``."""
    return _hash(seed % 2**64, np.arange(n_trees))


def _bootstrap(keys: np.ndarray, sizes: list[int]) -> np.ndarray:
    """Tree after tree, the ``sizes[t]`` bootstrap draws of tree ``keys[t]``
    from ``range(sizes[t])``: draw j scales the high 32 bits of the hash
    of (key, 0, j)."""
    n = np.repeat(np.asarray(sizes, dtype=np.uint64), sizes)
    j = np.arange(n.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    high = _fold(np.repeat(_hash(keys, 0), sizes), j) >> np.uint64(32)
    return ((high * n) >> np.uint64(32)).astype(np.int64)


def _drawn_features(
    keys: np.ndarray, owner: np.ndarray, depth: int, place: np.ndarray, d: int, k: int
) -> np.ndarray:
    """The ``k`` of ``d`` features, ascending, drawn by each node: node i
    is the one at ``place[i]`` among the depth-``depth`` nodes of tree
    ``keys[owner[i]]``, and draws the ``k`` lowest hashes of (key,
    depth + 1, place, feature)."""
    prefix = _hash(keys, depth + 1)[owner]
    ranks = _fold(_fold(prefix, place)[:, None], np.arange(d))
    return np.sort(np.argsort(ranks, axis=1, kind="stable")[:, :k], axis=1)


@dataclass(frozen=True)
class NodeTable:
    """The nodes of a model's trees in one table, grouped tree by tree.

    ``roots`` holds the index of each tree's root; child ids index the
    table itself, so prediction walks every tree at once.

    Saved, each tree is one list of its nodes in pre-order, each node
    followed by its left subtree and then its right subtree: a split is
    the list ``[feature, threshold]`` and a leaf is its value, so a stump
    is ``[[0, 0.35], 1.0, 0.0]`` and a single leaf ``[1.0]``. A loaded
    table numbers its nodes in that order, tree after tree.
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
        # tables are acyclic, so no walk is longer than the node count
        for _ in range(self.left.size):
            internal = self.left[idx] >= 0
            if not internal.any():
                break
            feat = np.where(internal, self.feature[idx], 0)
            go_left = X[rows, feat] <= self.threshold[idx]
            nxt = np.where(go_left, self.left[idx], self.right[idx])
            idx = np.where(internal, nxt, idx)
        return self.value[idx]

    def check(self, input_dim: int) -> None:
        """Raise ValidationError unless every split reads a feature of an
        ``input_dim``-wide vector at a finite threshold and every leaf value
        is finite."""
        split = self.left >= 0
        bad = split & ((self.feature < 0) | (self.feature >= input_dim))
        if bad.any():
            raise ValidationError(
                f"tree split on feature {int(self.feature[bad][0])}, "
                f"outside [0, {input_dim})"
            )
        if not np.isfinite(self.threshold[split]).all():
            raise ValidationError("tree split threshold is not finite")
        if not np.isfinite(self.value[~split]).all():
            raise ValidationError("tree leaf value is not finite")

    def to_json(self) -> list[list]:
        feature, threshold, left, right, value = (
            a.tolist() for a in (self.feature, self.threshold, self.left, self.right, self.value)
        )
        trees = []
        for root in self.roots.tolist():
            tree, stack = [], [root]
            while stack:
                i = stack.pop()
                if left[i] < 0:
                    tree.append(value[i])
                else:
                    tree.append([feature[i], threshold[i]])
                    stack += (right[i], left[i])
            trees.append(tree)
        return trees

    @classmethod
    def from_json(cls, trees: list[list]) -> "NodeTable":
        if not isinstance(trees, list):
            raise ValueError("trees are not a list")
        roots: list[int] = []
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []
        for tree in trees:
            if not isinstance(tree, list) or not tree:
                raise ValueError("a tree is not a nonempty list of nodes")
            roots.append(len(feature))
            open_splits = []  # splits whose left subtree is not yet complete
            for n, entry in enumerate(tree, start=1):
                i = len(feature)
                if isinstance(entry, list):
                    if len(entry) != 2:
                        raise ValueError(f"tree split {entry!r} is not [feature, threshold]")
                    feature.append(int(entry[0]))
                    threshold.append(float(entry[1]))
                    left.append(i + 1)
                    right.append(-1)
                    value.append(0.0)
                    open_splits.append(i)
                    continue
                feature.append(-1)
                threshold.append(0.0)
                left.append(-1)
                right.append(-1)
                value.append(float(entry))
                if open_splits:  # the next node starts that split's right subtree
                    right[open_splits.pop()] = i + 1
                elif n < len(tree):
                    raise ValueError("tree has nodes after its last leaf")
                else:
                    break
            else:
                raise ValueError("tree ends before its last leaf")
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
    """Per-feature candidate thresholds and the bin index of every value.

    Each column is read with its zeros unsigned (``+ 0.0`` turns -0.0 into
    0.0) and sorted once, so neither edges nor bins depend on row order.
    Past MAX_BINS distinct values, the edges are the inner quantiles of
    numpy's linear method (Hyndman & Fan 1996, definition 7), read on the
    sorted column with numpy's own lerp: ``np.quantile``'s values, bit for
    bit. Consecutive quantiles fall in distinct gaps of the sorted column,
    so they ascend and drop their repeats in order.
    """
    n, d = X.shape
    at = (n - 1) * np.linspace(0.0, 1.0, MAX_BINS + 1)[1:-1]
    low = np.floor(at).astype(np.int64)
    t = at - low
    edges_list: list[np.ndarray] = []
    binned = np.zeros((n, d), dtype=np.int64)
    for f in range(d):
        vals = X[:, f] + 0.0
        s = np.sort(vals)
        uniq = s[np.concatenate([[True], s[1:] != s[:-1]])]
        if len(uniq) <= 1:
            edges = np.empty(0)
        elif len(uniq) <= MAX_BINS:
            edges = (uniq[:-1] + uniq[1:]) / 2.0
        else:
            a, b = s[low], s[low + 1]
            edges = np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)
            edges = edges[np.concatenate([[True], edges[1:] != edges[:-1]])]
        # bin b holds values v with edges[b-1] < v <= edges[b]
        binned[:, f] = np.searchsorted(edges, vals, side="left")
        edges_list.append(edges)
    return edges_list, binned


def _edge_table(edges: list[list[np.ndarray]]) -> np.ndarray:
    """Candidate thresholds of every root as one (roots, d, width) array,
    padded to the widest root.

    A row's bin is at most its feature's candidate count, so every padding
    candidate leaves its right side empty and never splits. The width is
    at least 1, so a root whose features are all constant still has a
    (never valid) candidate and grows a single leaf.
    """
    width = max([1] + [len(e) for per_root in edges for e in per_root])
    return np.array([[np.pad(e, (0, width - len(e))) for e in per_root] for per_root in edges])


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


def _group(binned: np.ndarray, y: np.ndarray, sizes: list[int]) -> tuple[np.ndarray, ...]:
    """Group the rows of datasets laid out one after another (``sizes[i]``
    rows each) by (dataset, bin vector, label). Returns each row's group,
    each group's first row and row count, and each dataset's group count.

    Groups run dataset by dataset, each dataset's in (bin vector, label)
    order, so they depend neither on row order nor on the other datasets.
    One ``lexsort`` serves every width, where a packed key would overflow.
    """
    keys = np.column_stack([np.repeat(np.arange(len(sizes)), sizes), binned, y.astype(np.int64)])
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    group = np.empty(len(order), dtype=np.int64)
    group[order] = np.cumsum(new) - 1
    starts = np.flatnonzero(new)
    count = np.diff(np.append(starts, len(order)))
    return group, order[starts], count, np.bincount(ranked[new, 0], minlength=len(sizes))


def _collapse(columns: tuple, n_roots: int) -> tuple:
    """Drop every split that changes no prediction from the joined node
    columns ``(root, feature, threshold, left, right, value)`` of a
    ``_grow`` call with ``n_roots`` roots.

    A split whose two children are leaves of one value becomes a leaf of
    that value, and its children go; this repeats until no such split is
    left, so a subtree whose leaves all hold one value becomes one leaf.
    Every row reaches a leaf of the value it reached before, so every
    prediction, and every sum of them, is the same bit for bit. This is
    the zero-cost case of CART's cost-complexity pruning (Breiman et al.
    1984). Child ids are renumbered over the nodes that are kept.
    """
    root, feature, threshold, left, right, value = columns
    # the nodes after the roots are sibling pairs: pair p holds the children
    # of the p-th split by id, its left child first
    first, second = slice(n_roots, None, 2), slice(n_roots + 1, None, 2)
    if not (value[first] == value[second]).any():  # as in GBT passes, as a rule
        return columns
    parent = np.flatnonzero(left >= 0)
    while True:
        same = (value[first] == value[second]) & (left[first] < 0) & (left[second] < 0)
        same &= left[parent] >= 0
        if not same.any():
            break
        node = parent[same]
        feature[node] = left[node] = right[node] = -1
        threshold[node] = 0.0
        value[node] = value[first][same]
    kept = np.ones(left.size, dtype=bool)
    kept[first] = kept[second] = left[parent] >= 0
    new_id = np.cumsum(kept) - 1  # each kept node's id among the kept
    left, right = (np.where(c >= 0, new_id[c], -1) for c in (left, right))
    return tuple(c[kept] for c in (root, feature, threshold, left, right, value))


@np.errstate(divide="ignore", invalid="ignore")  # empty bins score 0/0, set to -inf below
def _grow(
    binned: np.ndarray,
    root_rows: list[int],
    edge_values: np.ndarray,
    target: np.ndarray,
    weight: np.ndarray,
    tree_ids: np.ndarray,
    max_depth: int,
    classification: bool,
    keys: np.ndarray | None = None,
    features_per_split: int = 0,
) -> tuple[tuple, np.ndarray]:
    """Grow one tree per root, level by level, all roots at once.

    Rows (groups, to the trainers) are laid out root after root
    (``root_rows`` of them each), each row counting ``weight`` times, and
    ``edge_values`` holds each root's thresholds as built by
    ``_edge_table``. At each level, one weighted ``bincount`` builds the
    count histograms and one the target-sum histograms of every frontier
    node of every root, over the node's candidate features only: every
    feature, or with ``keys`` (one per root) the ``features_per_split``
    that ``_drawn_features`` draws for each node below ``max_depth``. A
    node's draw reads its position among its root's frontier nodes, which
    lie root after root, so it does not depend on the other roots of the
    pass. The leaf level reads node totals only, so it bins feature 0
    alone. A bin's rows are added in ascending row order, as a one-root
    call adds them, so every sum, split and leaf is bit-identical to it.
    Split ties resolve to the lowest feature index, then lowest threshold
    (padding bins score -inf).

    State is kept for the frontier only: its node ids are contiguous, so a
    row's node is its place ``loc`` in the frontier, and the children of
    the level's split number ``rank`` take places ``2 * rank`` and
    ``2 * rank + 1`` of the next. Node columns are joined once at the
    end, and ``_collapse`` drops the splits that change no prediction.

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

    rows = np.arange(n)  # the rows of frontier nodes, ascending
    loc = np.repeat(np.arange(n_roots), root_rows)  # each row's place in the frontier
    owner = np.arange(n_roots)  # each frontier node's root
    out = np.empty(n)  # each row's value at its deepest node so far
    levels = []  # (root, feature, threshold, left, right, value) of each level's nodes
    first = 0  # the id of the frontier's first node

    for depth in range(max_depth + 1):
        m = owner.size

        # each row's histogram bin for each candidate feature of its node
        if depth == max_depth:  # leaves read node totals only: feature 0's bins
            k = 1
            flat = loc * B + binned[rows, 0]
            w_cnt, w_sum = weight[rows], weighted[rows]
        else:
            if keys is None:  # every feature, in order
                k = d
                flat = (loc * (d * B))[:, None] + offset[rows]
            else:
                k = features_per_split
                per_root = np.bincount(owner, minlength=n_roots)
                place = np.arange(m) - (np.cumsum(per_root) - per_root)[owner]
                feats = _drawn_features(keys, owner, depth, place, d, k)
                flat = ((loc * k)[:, None] + np.arange(k)) * B
                flat += binned[rows[:, None], feats[loc]]
            flat = flat.ravel()
            w_cnt, w_sum = np.repeat(weight[rows], k), np.repeat(weighted[rows], k)
        size = m * k * B
        cnt = np.bincount(flat, weights=w_cnt, minlength=size)
        wgt = np.bincount(flat, weights=w_sum, minlength=size)
        cum_n = np.cumsum(cnt.reshape(m, k, B), axis=2)
        cum_w = np.cumsum(wgt.reshape(m, k, B), axis=2)
        node_n = cum_n[:, 0, -1]
        node_w = cum_w[:, 0, -1]

        # Leaf outputs for every frontier node (kept unless the node splits).
        if classification:
            value = (2.0 * node_w >= node_n).astype(float)
        else:
            value = node_w / np.maximum(node_n, 1.0)
        out[rows] = value[loc]
        feature, left, right = np.full((3, m), -1, dtype=np.int64)
        threshold = np.zeros(m)
        levels.append((owner, feature, threshold, left, right, value))

        if depth == max_depth:
            break

        nL = cum_n[:, :, :-1]
        wL = cum_w[:, :, :-1]
        nR = node_n[:, None, None] - nL
        wR = node_w[:, None, None] - wL
        if classification:
            score = (wL**2 + (nL - wL) ** 2) / nL + (wR**2 + (nR - wR) ** 2) / nR
            parent = (node_w**2 + (node_n - node_w) ** 2) / node_n
        else:
            score = wL**2 / nL + wR**2 / nR
            parent = node_w**2 / node_n
        score[(nL == 0) | (nR == 0)] = -np.inf

        flat_score = score.reshape(m, -1)
        flat_best = flat_score.argmax(axis=1)
        best = flat_score[np.arange(m), flat_best]
        do_split = np.isfinite(best) & (best > parent + 1e-12)

        split = np.nonzero(do_split)[0]
        if split.size == 0:
            break
        b_best = np.zeros(m, dtype=np.int64)
        b_best[split] = flat_best[split] % (B - 1)
        column = flat_best[split] // (B - 1)
        feature[split] = column if keys is None else feats[split, column]
        threshold[split] = edge_values[owner[split], feature[split], b_best[split]]
        first += m
        left[split] = first + 2 * np.arange(split.size)
        right[split] = left[split] + 1

        keep = do_split[loc]
        rows, loc = rows[keep], loc[keep]
        go_right = binned[rows, feature[loc]] > b_best[loc]
        loc = 2 * (np.cumsum(do_split) - 1)[loc] + go_right
        owner = np.repeat(owner[split], 2)

    root, *columns = _collapse(tuple(np.concatenate(c) for c in zip(*levels)), n_roots)
    return (tree_ids[root], *columns), out


@dataclass(frozen=True)
class ForestModel:
    nodes: NodeTable

    def predict(self, X: np.ndarray) -> np.ndarray:
        votes = self.nodes.leaves(np.asarray(X, dtype=float)).sum(axis=1)
        # majority of tree votes; exact tie predicts lonely (1)
        return (2.0 * votes >= self.nodes.roots.size).astype(int)

    def check(self, input_dim: int) -> None:
        self.nodes.check(input_dim)

    def to_json(self) -> dict:
        return {"trees": self.nodes.to_json()}

    @classmethod
    def from_json(cls, doc: dict) -> "ForestModel":
        return cls(nodes=NodeTable.from_json(doc["trees"]))


def train_random_forest(
    datasets: list[Dataset], seeds: list[int], n_trees: int = 100, max_depth: int = 8
) -> list[ForestModel]:
    """Bagged CART trees: Gini splits, sqrt(d) features per split, one
    forest per (dataset, seed), all trees grown together.

    Rows are canonicalized before any seeded draw, so a forest is
    independent of input row order. Single-class data is allowed and
    yields a constant predictor. The trees of every dataset are laid out
    dataset after dataset. Their bootstraps are drawn PASS_ROWS draws at
    a time, and the trees are grown PASS_ROWS (tree, group) slots at a
    time, so a pass may hold trees of several chunks and datasets; each
    root reads its own dataset's thresholds, and forest i equals the
    forest of ``datasets[i]`` trained alone. Counts and 0/1 label sums
    are exact in any order, so growing on groups gives the trees that
    growing on the distinct drawn rows gave.
    """
    check_batch(datasets, seeds, "random forest")
    if any(len(ds) == 0 for ds in datasets):
        raise ValidationError("random forest requires a nonempty dataset")
    if not datasets:
        return []
    d = datasets[0].dim
    features_per_split = max(1, int(np.sqrt(d)))
    sizes = [len(ds) for ds in datasets]
    starts = np.cumsum([0] + sizes[:-1])

    # thresholds and bins from each dataset's canonical rows; each bootstrap
    # draws rows of its dataset, counted per group
    orders = [ds.canonical_order() for ds in datasets]
    edges, binned = zip(*(_bin_columns(ds.vectors[o]) for ds, o in zip(datasets, orders)))
    edge_values = _edge_table(list(edges))
    binned = np.concatenate(binned)
    y = np.concatenate([ds.labels[o].astype(float) for ds, o in zip(datasets, orders)])
    group, first, _, n_groups = _group(binned, y, sizes)
    group_start = np.cumsum(n_groups) - n_groups

    # tree t of dataset i is root i * n_trees + t
    owner = np.repeat(np.arange(len(datasets)), n_trees)
    keys = np.concatenate([_tree_keys(seed, n_trees) for seed in seeds])
    root_rows = [sizes[i] for i in owner.tolist()]
    parts, held = [], []  # held: (root, first row, draws) of each slot drawn, not yet grown
    chunks = _passes(root_rows)
    for c, run in enumerate(chunks):
        sizes_run, roots = root_rows[run], owner[run]
        # each tree's groups take consecutive slots: its slot s is group s + shift
        slots_per_tree = n_groups[roots]
        shift = group_start[roots] - (np.cumsum(slots_per_tree) - slots_per_tree)
        drawn_by = np.repeat(np.arange(len(sizes_run)), sizes_run)
        draws = _bootstrap(keys[run], sizes_run) + starts[roots][drawn_by]
        counts = np.bincount(group[draws] - shift[drawn_by], minlength=slots_per_tree.sum())
        # each tree keeps the groups it drew, ascending, weighted by their draws
        slots = np.nonzero(counts)[0]
        tree = np.repeat(np.arange(len(sizes_run)), slots_per_tree)[slots]
        held.append((run.start + tree, first[slots + shift[tree]], counts[slots]))
        root, rows, weight = (np.concatenate(col) for col in zip(*held))
        # every tree draws a row, so the held trees are roots root[0] onward
        per_root = np.bincount(root - root[0])
        ends = np.cumsum(per_root)
        passes = _passes(per_root.tolist())
        if c + 1 < len(chunks):  # the last pass may still take trees of the next chunk
            passes, rest = passes[:-1], passes[-1]
            a = ends[rest.start] - per_root[rest.start]
            held = [(root[a:], rows[a:], weight[a:])]
        for p in passes:
            a, b = ends[p.start] - per_root[p.start], ends[p.stop - 1]
            grown = slice(root[0] + p.start, root[0] + p.stop)
            part, _ = _grow(
                binned[rows[a:b]], per_root[p].tolist(), edge_values[owner[grown]],
                y[rows[a:b]], weight[a:b].astype(float),
                np.arange(len(owner))[grown], max_depth, classification=True,
                keys=keys[grown] if features_per_split < d else None,
                features_per_split=features_per_split,
            )
            parts.append(part)
    return [ForestModel(nodes) for nodes in _collect(parts, len(datasets), n_trees)]


@dataclass(frozen=True)
class GBTModel:
    init_score: float
    learning_rate: float
    nodes: NodeTable

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        scores = np.full(X.shape[0], self.init_score)
        if self.nodes.roots.size:
            leaf = self.nodes.leaves(np.asarray(X, dtype=float))
            scores = scores + self.learning_rate * leaf.sum(axis=1)
        return scores

    def predict(self, X: np.ndarray) -> np.ndarray:
        # a score below about -709 overflows exp to inf, and 1 / (1 + inf) is 0
        with np.errstate(over="ignore"):
            return (1.0 / (1.0 + np.exp(-self.decision_scores(X))) >= 0.5).astype(int)

    def check(self, input_dim: int) -> None:
        if not np.isfinite([self.init_score, self.learning_rate]).all():
            raise ValidationError("GBT init_score or learning_rate is not finite")
        self.nodes.check(input_dim)

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
    datasets: list[Dataset],
    seeds: list[int],
    n_rounds: int = 100,
    max_depth: int = 3,
    learning_rate: float = 0.1,
) -> list[GBTModel]:
    """Additive regression trees fit to logistic-loss gradients, one model
    per (dataset, seed), boosted in lockstep.

    First-order boosting only: each round fits a squared-error tree to the
    residual y - sigmoid(score) and adds it with a fixed learning rate.
    The initial score is the log-odds of the training base rate. Training
    is deterministic; the seeds are part of the shared trainer signature.
    A round reads each (bin vector, label) group once, with one score and
    residual and its row count as weight, so a model does not depend on
    row order. Each round grows the next tree of every dataset in one
    grower call (datasets are taken PASS_ROWS groups at a time), and model
    i equals the model of ``datasets[i]`` trained alone.
    """
    check_batch(datasets, seeds, "gradient boosting")
    for dataset in datasets:
        require_both_classes(dataset, "gradient boosting")
    if not datasets:
        return []
    labels = [ds.labels.astype(float) for ds in datasets]
    init_scores = np.array([np.log(y.mean() / (1.0 - y.mean())) for y in labels])

    edges, binned = zip(*(_bin_columns(ds.vectors) for ds in datasets))
    edge_values = _edge_table(list(edges))
    binned, y = np.concatenate(binned), np.concatenate(labels)
    _, first, count, n_groups = _group(binned, y, [len(y) for y in labels])
    binned, y, count = binned[first], y[first], count.astype(float)
    ends = np.cumsum(n_groups)  # each dataset's groups end here

    parts = []
    for run in _passes(n_groups.tolist()):
        groups = slice(ends[run.start] - n_groups[run.start], ends[run.stop - 1])
        root_rows = n_groups[run].tolist()
        scores = np.repeat(init_scores[run], root_rows)
        first_ids = np.arange(len(datasets))[run] * n_rounds
        for k in range(n_rounds):
            resid = y[groups] - 1.0 / (1.0 + np.exp(-scores))
            part, train_out = _grow(
                binned[groups], root_rows, edge_values[run], resid,
                count[groups], first_ids + k, max_depth, classification=False,
            )
            parts.append(part)
            scores = scores + learning_rate * train_out
    return [
        GBTModel(init_score=float(init_score), learning_rate=learning_rate, nodes=nodes)
        for init_score, nodes in zip(init_scores, _collect(parts, len(datasets), n_rounds))
    ]
