"""The tree learners grow many trees per pass yet give the same models.

The GBT digests below were recorded when boosting moved to (binned row,
label) groups, whose residual sums c*r round differently from c added
residuals: any change to a split, a leaf value or a threshold changes
them. The forest digests, including those of eight and sixteen
features, whose nodes draw two and four of them, were recorded when
forest draws became counter hashes keyed by the tree, in place of one
numpy generator per tree, and again, with the forest CV digests, when
the grower came to drop every split whose two children are leaves of one
value; with their trees removed, those documents hash as before. The
sampler tests check those
hashes' statistics: bootstrap counts against the multinomial, uniform
feature draws, and distinct tree keys and bootstraps. The logreg CV
digests were recorded when damped Newton replaced logreg's gradient
descent, and the SVM CV digests when the SVM moved to the same solver on
the squared hinge.
"""

import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from scipy.stats import binom, chisquare

from cohortsense.core import ValidationError
from cohortsense.learners import (
    Dataset,
    kfold_cv,
    model_from_json,
    model_to_json,
    train_gbt,
    train_linear_svm,
    train_logreg,
    train_random_forest,
)
from cohortsense.learners import trees
from cohortsense.learners.base import MODEL_SCHEMA_VERSION


def tied_dataset():
    """<= 32 distinct values per feature (midpoint edges, many ties), one constant feature."""
    rng = np.random.default_rng(606)
    n = 150
    coarse = rng.integers(0, 6, size=n).astype(float)
    constant = np.full(n, 1.5)
    grid = rng.integers(0, 24, size=n) / 4.0
    vectors = np.column_stack([coarse, constant, grid])
    labels = ((coarse + 0.3 * grid + rng.normal(0, 1.5, n)) > 5.2).astype(int)
    pids = tuple(f"t{i:03d}" for i in range(n))
    return Dataset(vectors=vectors, labels=labels, participant_ids=pids)


def spread_dataset():
    """> 32 distinct values per feature (quantile edges)."""
    rng = np.random.default_rng(607)
    n = 180
    vectors = rng.normal(size=(n, 2))
    labels = ((vectors[:, 0] - 0.7 * vectors[:, 1] + rng.normal(0, 0.8, n)) > 0.6).astype(int)
    pids = tuple(f"s{i:03d}" for i in range(n))
    return Dataset(vectors=vectors, labels=labels, participant_ids=pids)


DATASETS = {"tied": tied_dataset, "spread": spread_dataset}


def wide_dataset(name: str, d: int) -> Dataset:
    """``d`` features, so a forest node draws int(sqrt(d)) > 1 of them.

    "tied": <= 32 values per feature (midpoint edges, many ties) and one
    constant column; "spread": normal draws (quantile edges).
    """
    rng = np.random.default_rng(700 + d)
    n = 170
    if name == "tied":
        vectors = rng.integers(0, 12, size=(n, d)) / 2.0
        vectors[:, 1] = 0.5
    else:
        vectors = rng.normal(size=(n, d))
    signal = vectors @ rng.normal(size=d)
    labels = (signal + rng.normal(0, signal.std(), n) > np.median(signal)).astype(int)
    pids = tuple(f"w{i:03d}" for i in range(n))
    return Dataset(vectors=vectors, labels=labels, participant_ids=pids)


DIGESTS = {
    "tied/forest": "4968e76584b20c30f78e727e1c0ae7400b828ac6a0df0606cd4f5400e89faee6",
    "tied/gbt": "7950ee6ee13b063c83b73f53160bf525ed234da2b6363252dcd39d3d07e86d69",
    "tied/cv/logreg": "cf15c23e3090d7e722475db10b9c4706f685c92bd964fd4209be35dbcb161a22",
    "tied/cv/linear_svm": "89896447a80ea492db78ddeedd56d832254995025b00d0edafd0061a37ac292b",
    "tied/cv/random_forest": "2d0e47288a16c8994d404524a5f7f5641477d7ccf7ce189ba9a620527ac867ad",
    "tied/cv/gbt": "9e800908f1fa56ee1a8e8634140d7f7f0fbef27cf7716fe18b86495e97d4970a",
    "spread/forest": "a2975392de3486721490d3475c007a3034e5b7a86762726e9e170a3797398887",
    "spread/gbt": "b965c58b0540b40cb8cd289fc2a76088844f86624d405b467476967a674da1af",
    "spread/cv/logreg": "5d96ed1db38700b8b73c65888309df4524631b7471cccb8b7ddcae455a4c1ebc",
    "spread/cv/linear_svm": "1cbfe722c41a6565a5f707d86006fcf0743723354810446ddd7e5366dbaa6602",
    "spread/cv/random_forest": "a39657fd7050490bafcb21765eea836ab251e8948d9ebced309d70d464a319c8",
    "spread/cv/gbt": "ea5d76425277ea7a069ce9956509423d64a555fa6ef451657e54fc1d5b77a808",
    # two and four drawn features per node
    "tied8/forest": "87c19f61c750829402a64da926c615a557834bdfdf0d6a3b6b47d646497079d7",
    "tied16/forest": "b1c6b5e4403f3715f83aea646c34d946fc341667b0a723bbc888b6004d594abd",
    "spread8/forest": "0f06f565b200329214bdc5092ff95817f6f9e417d799291cd47be08ff551557d",
    "spread16/forest": "34b29143a1f907109d16d2c86a8fc3e9e823fbedcd80442993371d49616e23b9",
    "tied8/gbt": "20ac07aa5a2a3b980186b8305ce22c10fe13ad7cd8c327d978ec5cda8d9a203a",
    "tied16/gbt": "37fa34b414cbee19fbdc6a5d775f6d157486917baf9ef94dbf4c22f5d62ca078",
    "spread8/gbt": "c5e29f67e2750be29dc188712cfe59b9266e25c84d89ee994b0e2d6898a3211d",
    "spread16/gbt": "c17429e32d25f2d806bbbb2514c5c237b0a207965d57d80dc30ea84b482033fd",
}

TRAINERS = {
    "logreg": train_logreg,
    "linear_svm": train_linear_svm,
    "random_forest": train_random_forest,
    "gbt": train_gbt,
}


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", DATASETS)
def test_forest_digest(name):
    model = train_random_forest([DATASETS[name]()], [11], n_trees=100, max_depth=8)[0]
    assert digest(model_to_json(model)) == DIGESTS[f"{name}/forest"]


@pytest.mark.parametrize("d", [8, 16])
@pytest.mark.parametrize("name", DATASETS)
def test_forest_digest_with_several_drawn_features(name, d):
    model = train_random_forest([wide_dataset(name, d)], [11], n_trees=100, max_depth=8)[0]
    assert digest(model_to_json(model)) == DIGESTS[f"{name}{d}/forest"]


@pytest.mark.parametrize("name", DATASETS)
def test_gbt_digest(name):
    model = train_gbt([DATASETS[name]()], [11], n_rounds=100)[0]
    assert digest(model_to_json(model)) == DIGESTS[f"{name}/gbt"]


@pytest.mark.parametrize("d", [8, 16])
@pytest.mark.parametrize("name", DATASETS)
def test_gbt_digest_with_several_features(name, d):
    model = train_gbt([wide_dataset(name, d)], [11], n_rounds=100)[0]
    assert digest(model_to_json(model)) == DIGESTS[f"{name}{d}/gbt"]


def test_groups_hold_equal_bins_and_labels_at_sixteen_features():
    # 33 bins per feature: a key packing 16 bins and a label would need 33**16 * 2 > 2**63
    rng = np.random.default_rng(16)
    pool = rng.integers(0, 33, size=(40, 16))
    binned = np.vstack([pool[rng.integers(0, 40, size=300)], rng.integers(0, 33, size=(60, 16))])
    binned[::7, :] = 32  # the widest key of all
    y = rng.integers(0, 2, size=len(binned)).astype(float)
    sizes = [100, 1, 259]
    group, first, count, per_dataset = trees._group(binned, y, sizes)
    dataset = np.repeat(np.arange(3), sizes)
    assert (binned[first[group]] == binned).all() and (y[first[group]] == y).all()
    assert (dataset[first[group]] == dataset).all()
    keys = np.column_stack([dataset[first], binned[first], y[first]])
    assert np.unique(keys, axis=0).shape[0] == first.size < len(binned)
    assert count.tolist() == np.bincount(group).tolist()
    assert per_dataset.tolist() == np.bincount(dataset[first], minlength=3).tolist()
    assert (np.diff(dataset[first]) >= 0).all()  # groups run dataset by dataset


def test_gbt_of_doubled_rows_equals_the_original():
    # <= 32 values per feature, so the copies move no edge; every grouped
    # count and residual sum doubles exactly
    ds = tied_dataset()
    order = np.random.default_rng(3).permutation(2 * len(ds))
    doubled = Dataset(
        np.vstack([ds.vectors, ds.vectors])[order],
        np.concatenate([ds.labels, ds.labels])[order],
        tuple(np.array(ds.participant_ids + tuple(f"{p}b" for p in ds.participant_ids))[order]),
    )
    models = train_gbt([ds, doubled], [11, 11], n_rounds=50)
    assert model_to_json(models[0]) == model_to_json(models[1])


@pytest.mark.parametrize("kind", ["logreg", "linear_svm", "random_forest", "gbt"])
@pytest.mark.parametrize("name", DATASETS)
def test_kfold_cv_with_smote_digest(name, kind):
    fitted = []

    def train_fn(datasets, seeds):
        models = TRAINERS[kind](datasets, seeds)
        fitted.extend(models)
        return models

    dataset = DATASETS[name]()
    [(metrics, deployed)] = kfold_cv(
        dataset, 5, [train_fn], seed=13, k_neighbors=5, deployed=[(dataset, 17)]
    )
    assert deployed is fitted[-1]
    # the pins were recorded before CV trained a deployed model too
    doc = {"metrics": dataclasses.asdict(metrics), "models": [model_to_json(m) for m in fitted[:-1]]}
    assert digest(doc) == DIGESTS[f"{name}/cv/{kind}"]


@pytest.mark.parametrize("name", DATASETS)
def test_forest_independent_of_trees_per_pass(monkeypatch, name):
    ds = DATASETS[name]()
    n, n_trees = len(ds), 30
    docs = []
    for trees_per_pass in (1, 7, n_trees):
        monkeypatch.setattr(trees, "PASS_ROWS", trees_per_pass * n)
        model = train_random_forest([ds], [11], n_trees=n_trees, max_depth=6)[0]
        docs.append(model_to_json(model))
    assert docs[0] == docs[1] == docs[2]


def test_passes_cover_every_root_in_order_within_the_row_budget(monkeypatch):
    monkeypatch.setattr(trees, "PASS_ROWS", 10)
    sizes = [4, 4, 4, 12, 3, 7, 10]
    runs = trees._passes(sizes)
    assert [i for run in runs for i in range(len(sizes))[run]] == list(range(len(sizes)))
    for run in runs:
        assert sum(sizes[run]) <= 10 or len(sizes[run]) == 1


def unequal_datasets():
    """Different lengths, different per-feature edge counts, ties and a constant column.

    The last two hold repeated rows (equal vectors, distinct ids, not
    always one label) and a single minority row, so that many bootstraps
    draw one class only.
    """
    rng = np.random.default_rng(5)
    out = []
    for n, levels in [(40, 3), (97, 12), (23, 2), (160, 0)]:
        if levels:
            vectors = rng.integers(0, levels, size=(n, 2)).astype(float)
            vectors[:, 1] = 0.25 if levels == 2 else vectors[:, 1]
        else:
            vectors = rng.normal(size=(n, 2))
        labels = (vectors[:, 0] + rng.normal(0, 0.7, n) > vectors[:, 0].mean()).astype(int)
        labels[:2] = (0, 1)
        pids = tuple(f"u{n}_{i:03d}" for i in range(n))
        out.append(Dataset(vectors=vectors, labels=labels, participant_ids=pids))
    repeated = np.repeat(rng.normal(size=(12, 2)), 4, axis=0)
    labels = (repeated[:, 0] + rng.normal(0, 0.7, 48) > 0).astype(int)
    out.append(Dataset(repeated, labels, tuple(f"r{i:02d}" for i in range(48))))
    minority = rng.normal(size=(30, 2))
    labels = np.zeros(30, dtype=int)
    labels[7] = 1
    out.append(Dataset(minority, labels, tuple(f"m{i:02d}" for i in range(30))))
    return out


@pytest.mark.parametrize("pass_rows", [1, 150, trees.PASS_ROWS])
@pytest.mark.parametrize("n_rounds", [0, 1, 25])
def test_gbt_many_equals_one_at_a_time(monkeypatch, pass_rows, n_rounds):
    datasets = unequal_datasets()
    seeds = [3, 1, 4, 1, 5, 9]
    for max_depth in (1, 2, 3, 4):  # shallow trees reach the leaf level early
        single = [
            model_to_json(train_gbt([ds], [s], n_rounds=n_rounds, max_depth=max_depth)[0])
            for ds, s in zip(datasets, seeds)
        ]
        with monkeypatch.context() as patch:
            patch.setattr(trees, "PASS_ROWS", pass_rows)
            many = train_gbt(datasets, seeds, n_rounds=n_rounds, max_depth=max_depth)
        assert [model_to_json(m) for m in many] == single


@pytest.mark.parametrize("pass_rows", [1, 150, trees.PASS_ROWS])
@pytest.mark.parametrize("n_trees", [1, 7, 30])
def test_forest_many_equals_one_at_a_time(monkeypatch, pass_rows, n_trees):
    # passes hold trees of several datasets, each with its own edge table
    datasets = unequal_datasets()
    seeds = [3, 1, 4, 1, 5, 9]
    for max_depth in (1, 2, 3, 4, 5):
        single = [
            model_to_json(train_random_forest([ds], [s], n_trees=n_trees, max_depth=max_depth)[0])
            for ds, s in zip(datasets, seeds)
        ]
        with monkeypatch.context() as patch:
            patch.setattr(trees, "PASS_ROWS", pass_rows)
            many = train_random_forest(
                datasets, seeds, n_trees=n_trees, max_depth=max_depth
            )
        assert [model_to_json(m) for m in many] == single


def test_bootstrap_counts_fit_the_multinomial():
    n, n_trees = 40, 600
    sizes = [n, 7] * (n_trees // 2)  # trees of two datasets, interleaved
    draws = trees._bootstrap(trees._tree_keys(2024, n_trees), sizes)
    per_tree = np.split(draws, np.cumsum(sizes)[:-1])
    assert all(((t >= 0) & (t < size)).all() for t, size in zip(per_tree, sizes))
    counts = np.stack([np.bincount(t, minlength=n) for t in per_tree[::2]])
    # every row is drawn equally often over all trees ...
    assert chisquare(counts.sum(axis=0)).pvalue > 1e-3
    # ... and within one tree a row's count is Binomial(n, 1/n)
    observed = np.bincount(np.minimum(counts.ravel(), 4), minlength=5)
    expected = binom.pmf(np.arange(4), n, 1 / n)
    expected = np.append(expected, 1 - expected.sum()) * observed.sum()
    assert chisquare(observed, expected).pvalue > 1e-3


def test_each_feature_is_drawn_equally_often():
    d, k, n_trees, nodes = 16, 4, 50, 64
    keys, owner = trees._tree_keys(7, n_trees), np.repeat(np.arange(n_trees), nodes)
    place = np.tile(np.arange(nodes), n_trees)
    drawn = np.concatenate(
        [trees._drawn_features(keys, owner, depth, place, d, k) for depth in range(3)]
    )
    assert (np.diff(drawn, axis=1) > 0).all()  # k distinct features, ascending
    assert chisquare(np.bincount(drawn.ravel(), minlength=d)).pvalue > 1e-3


def test_folded_prefixes_give_the_word_by_word_hashes():
    rng = np.random.default_rng(24)
    keys = rng.integers(0, 2**64, size=50, dtype=np.uint64, endpoint=False) | np.uint64(1 << 63)
    sizes = rng.integers(1, 400, size=keys.size).tolist()
    j = np.concatenate([np.arange(size) for size in sizes])
    n = np.repeat(np.asarray(sizes, dtype=np.uint64), sizes)
    high = trees._hash(np.repeat(keys, sizes), 0, j) >> np.uint64(32)
    expected = ((high * n) >> np.uint64(32)).astype(np.int64)
    assert np.array_equal(trees._bootstrap(keys, sizes), expected)
    d = 16
    for depth in range(9):
        owner = rng.integers(0, keys.size, size=300)
        place = rng.integers(0, 2**8, size=300, endpoint=True)
        ranks = trees._hash(keys[owner][:, None], depth + 1, place[:, None], np.arange(d))
        for k in (1, 4, d):  # k = d compares the whole order of the hashes
            expected = np.sort(np.argsort(ranks, axis=1, kind="stable")[:, :k], axis=1)
            drawn = trees._drawn_features(keys, owner, depth, place, d, k)
            assert np.array_equal(drawn, expected)


def test_a_forest_call_draws_its_bootstraps_in_bounded_memory():
    # 600,000 draws, 30 times PASS_ROWS. Passes that ended after PASS_ROWS
    # draws peaked at 12.8 MB here, and all draws of the call at once take
    # 49 MB.
    rng = np.random.default_rng(30)
    datasets = []
    for i in range(3):
        X = rng.normal(size=(2000, 4))
        y = (X[:, 0] + rng.normal(0, 1, 2000) > 0).astype(int)
        datasets.append(Dataset(X, y, tuple(f"p{i}_{j}" for j in range(2000))))
    assert 3 * 2000 * 100 >= 30 * trees.PASS_ROWS
    tracemalloc.start()
    try:
        train_random_forest(datasets, [1, 2, 3], n_trees=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30 * 2**20


def test_tree_streams_do_not_repeat():
    seeds = [-7, 0, 1, 2, 11, 42, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    keys = np.concatenate([trees._tree_keys(seed, 1000) for seed in seeds])
    assert np.unique(keys).size == keys.size == 10_000
    draws = trees._bootstrap(keys[:200], [50] * 200).reshape(200, 50)
    assert np.unique(draws, axis=0).shape[0] == 200


def tied_grids():
    """``unequal_datasets()`` and two integer grids: many splits of their
    trees end in two leaves of one value."""
    rng = np.random.default_rng(14)
    out = unequal_datasets()
    for n, levels in [(120, 3), (400, 6)]:
        vectors = rng.integers(0, levels, size=(n, 2)).astype(float)
        labels = (vectors.sum(axis=1) + rng.normal(0, 1.5, n) > levels - 1).astype(int)
        labels[:2] = (0, 1)
        out.append(Dataset(vectors, labels, tuple(f"g{n}_{i:03d}" for i in range(n))))
    return out


def equal_leaf_splits(nodes: trees.NodeTable) -> int:
    """The splits of ``nodes`` whose two children are leaves of one value."""
    split = np.flatnonzero(nodes.left >= 0)
    left, right = nodes.left[split], nodes.right[split]
    leaves = (nodes.left[left] < 0) & (nodes.left[right] < 0)
    return int((leaves & (nodes.value[left] == nodes.value[right])).sum())


@pytest.mark.parametrize("max_depth", [2, 8])
@pytest.mark.parametrize("kind", ["forest", "gbt"])
def test_dropping_splits_of_equal_leaves_keeps_every_prediction(monkeypatch, kind, max_depth):
    datasets = tied_grids()
    seeds = list(range(len(datasets)))
    train, size = {
        "forest": (train_random_forest, {"n_trees": 30}),
        "gbt": (train_gbt, {"n_rounds": 20}),
    }[kind]
    collapsed = train(datasets, seeds, max_depth=max_depth, **size)
    with monkeypatch.context() as patch:
        patch.setattr(trees, "_collapse", lambda columns, n_roots: columns)
        full = train(datasets, seeds, max_depth=max_depth, **size)
    grid = np.stack(np.meshgrid(*[np.arange(-4.0, 12.5, 0.125)] * 2), axis=-1).reshape(-1, 2)
    for a, b in zip(collapsed, full):
        assert np.array_equal(a.nodes.leaves(grid), b.nodes.leaves(grid))
        assert np.array_equal(a.predict(grid), b.predict(grid))
        assert equal_leaf_splits(a.nodes) == 0
    if kind == "forest":
        assert sum(m.nodes.left.size for m in collapsed) < sum(m.nodes.left.size for m in full)
        assert sum(equal_leaf_splits(m.nodes) for m in full) > 0


def test_a_saved_split_of_equal_leaves_loads_and_predicts_as_before():
    # a forest saved before the grower dropped such splits
    old = {
        "feature": 0,
        "threshold": 0.5,
        "left": {"feature": 1, "threshold": 2.0, "left": {"leaf": 1.0}, "right": {"leaf": 1.0}},
        "right": {"leaf": 0.0},
    }
    new = {"feature": 0, "threshold": 0.5, "left": {"leaf": 1.0}, "right": {"leaf": 0.0}}
    stump = {"feature": 1, "threshold": 1.0, "left": {"leaf": 0.0}, "right": {"leaf": 1.0}}
    docs = [{"kind": "random_forest", "schema_version": MODEL_SCHEMA_VERSION, "trees": [t, stump]}
            for t in (old, new)]
    saved, collapsed = (model_from_json(json.loads(json.dumps(doc))) for doc in docs)
    assert saved.nodes.left.size == collapsed.nodes.left.size + 2
    assert equal_leaf_splits(saved.nodes) == 1
    assert model_to_json(saved)["trees"] == [old, stump]
    grid = np.stack(np.meshgrid(np.arange(-1.0, 2.0, 0.25), np.arange(0.0, 3.5, 0.25)), axis=-1)
    grid = grid.reshape(-1, 2)
    assert np.array_equal(saved.nodes.leaves(grid), collapsed.nodes.leaves(grid))
    assert np.array_equal(saved.predict(grid), collapsed.predict(grid))


@pytest.mark.parametrize(
    "train_many", [train_gbt, train_random_forest], ids=["gbt", "forest"]
)
def test_tree_many_rejects_mixed_widths(train_many):
    narrow, wide = unequal_datasets()[0], unequal_datasets()[1]
    wide = Dataset(
        np.column_stack([wide.vectors, wide.vectors[:, :1]]), wide.labels, wide.participant_ids
    )
    with pytest.raises(ValidationError, match="datasets differ in dimension"):
        train_many([narrow, wide], [0, 0])
    assert train_many([], []) == []


def roundtrip_cases():
    ds = unequal_datasets()[1]
    yield "forest", train_random_forest([ds], [2], n_trees=9, max_depth=5)[0]
    yield "gbt", train_gbt([ds], [2], n_rounds=12)[0]
    yield "gbt0", train_gbt([ds], [2], n_rounds=0)[0]


@pytest.mark.parametrize("name", ["forest", "gbt", "gbt0"])
def test_tree_models_survive_json_roundtrip(name):
    model = dict(roundtrip_cases())[name]
    doc = model_to_json(model)
    back = model_from_json(json.loads(json.dumps(doc)))
    assert model_to_json(back) == doc
    X = np.random.default_rng(8).normal(size=(64, 2)) * 3.0
    X = np.vstack([X, unequal_datasets()[1].vectors])
    assert np.array_equal(back.predict(X), model.predict(X))
    if name != "forest":
        assert np.array_equal(back.decision_scores(X), model.decision_scores(X))


def test_a_tree_deeper_than_64_splits_walks_to_its_leaves():
    # split i sends x <= i to a leaf 0.0 and the rest on down the chain
    tree = {"leaf": 1.0}
    for i in reversed(range(100)):
        tree = {"feature": 0, "threshold": float(i), "left": {"leaf": 0.0}, "right": tree}
    nodes = trees.NodeTable.from_json([tree])
    X = np.array([[1000.0], [99.5], [98.5], [70.0], [-1.0]])
    assert nodes.leaves(X)[:, 0].tolist() == [1.0, 1.0, 0.0, 0.0, 0.0]


def test_gbt_many_rejects_single_class_and_seed_mismatch():
    good, bad = unequal_datasets()[0], Dataset(np.zeros((3, 2)), np.ones(3, dtype=int), ("a", "b", "c"))
    with pytest.raises(ValidationError, match="both classes"):
        train_gbt([good, bad], [0, 0])
    with pytest.raises(ValidationError, match="seeds"):
        train_gbt([good], [0, 1])


def test_all_constant_features_grow_single_leaves():
    ds = Dataset(np.ones((6, 2)), np.array([0, 1, 0, 1, 1, 1]), tuple("abcdef"))
    forest = train_random_forest([ds], [0], n_trees=3, max_depth=3)[0]
    assert all("leaf" in doc for doc in model_to_json(forest)["trees"])
    gbt = train_gbt([ds], [0], n_rounds=2)[0]
    assert all("leaf" in doc for doc in model_to_json(gbt)["trees"])
    assert np.array_equal(gbt.predict(np.zeros((2, 2))), [1, 1])
