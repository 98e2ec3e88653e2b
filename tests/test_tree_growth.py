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
the squared hinge. Every digest here was recorded again when models
stopped carrying a schema version and a kind of their own (a saved
model's kind is its key in its set): each is the hash of the earlier
document with those two keys deleted. Those pins hash the trees as
checkpoints of version 2 laid them out, one nested dict per node: when
each tree became one pre-order list, the tests came to pass their
documents through `nested_trees.nested_doc` to check the pins, and the
pre-order documents' own digests were pinned beside them.
"""

import dataclasses
import hashlib
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import binom, chisquare

from cohortsense.core import ValidationError
from cohortsense.learners import (
    MODEL_TYPES,
    Dataset,
    ModelKind,
    kfold_cv,
    train_gbt,
    train_linear_svm,
    train_logreg,
    train_random_forest,
)
from cohortsense.learners import trees

from nested_trees import nested_doc, nested_render, preorder


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
    "tied/forest": "738c47ce265cb795259f36732306f11ba7b8c3c1596ce30e6cf63181c865f3ae",
    "tied/gbt": "15442e62b3f306e68499203bb344beff412b5706f2ecd92e687a22cc1f6c261b",
    "tied/cv/logreg": "649efb0022b553f045417a8b2b7f2c96b7620f6ace08b63ab2ed24bd1ef99a67",
    "tied/cv/linear_svm": "8dc1f57ac51d3aa6d08489248413adeedc7616420db2f528e054029b19ffbe8b",
    "tied/cv/random_forest": "23f8d383866e71abdcc07ef12c482f0502a51ef39e05a59ae9370010488b9ff3",
    "tied/cv/gbt": "292a35ce256d735f768a6202aef1df01483b0a7692dbec3a30cc47be563eb929",
    "spread/forest": "682ec6e669405502f424f007898d8ccd53df8207abad3eabffcfef36a698a9a6",
    "spread/gbt": "d6f3354ae6b1c02fd1a4fdbb69f706e157b7d4107def2aca0acdba551a9027c6",
    "spread/cv/logreg": "a16994e0e41fe886d89b1366b5fd02e5c96b7b077f2438daa87e035a923c921b",
    "spread/cv/linear_svm": "563c1e46e51df3f4c66fd0c3720cec1ccc3a13eea2542900a2d1107dd64b2bf3",
    "spread/cv/random_forest": "c5c93be705a670451823b74c87dc4c865e9a738032304bf625a37359089cbcd3",
    "spread/cv/gbt": "e5d65366177666f9dfd78245262b255abdb61c8dbe23f4b1d7c93c2df12c48ef",
    # two and four drawn features per node
    "tied8/forest": "bafb2edd66b4acd80cac7551f3731b1ac6e61321a6d7d87eecadf23b0f28b194",
    "tied16/forest": "cb296f3a0231745d3c57118b6895f20711c074b1b9decbd15da90aad63ae38ba",
    "spread8/forest": "4aa4852d10f8b6cce865ee6b59320937807b30a71f76733c5a5b2e23de81981c",
    "spread16/forest": "877f4f58a5f4c11eca38c641d9559659a1e16062325bc0fbf6a846e5b7959628",
    "tied8/gbt": "0f63962d3bd1ba4a3118f68ae3ec8170dc4454b2b5175c5edb729d1527ca2832",
    "tied16/gbt": "61b35b1d19ca71afe6b0cc7e06732356e546dedb044c05fe477073926377cd76",
    "spread8/gbt": "50e9186551f73d6de22fcfdc98b706a71f9cdca8252942994b00f9f5ece43f6a",
    "spread16/gbt": "912d55c2248b56774f82ad6d074dc2db914c7dd9ee1d245745ffe9401d6436fe",
}

# the same documents with each tree one pre-order list; the linear CV
# documents hold no trees and keep their digests
PREORDER_DIGESTS = {
    "tied/forest": "15be77b0b1d95a7aaadb47efceda9bc7f08badf745021269d951fe9e98662e2a",
    "tied/gbt": "ca5f89988951310627fea3d14e9ba95db9ea3b6bb891f5c8b06427d3f56ada86",
    "tied/cv/random_forest": "c8ebb629b8d62102442bf82c0c4eca3065521676f120ff996c05c66cfe8ca972",
    "tied/cv/gbt": "36aaeca035567d5fdd51484a196ce292bbff10e8b48450d9e6861d9cfbddb2d2",
    "spread/forest": "764aaf6f1245556aa532b6ba69cab6e2f4512f7a9974308a11842ce21be58087",
    "spread/gbt": "b77744d46cbfc967e4b148a465c246882a4f8ecef897864d515d73258c36139f",
    "spread/cv/random_forest": "c08141f28103a7df4652a4a5d8dc60d5ea57ea721e121fc2934a5df4ec5d0bd7",
    "spread/cv/gbt": "35d4fe5ec1a054f166817816f21c07ab3e52a1f182f0b04deab936dfa239213f",
    "tied8/forest": "e502082f0b92df138fcbef70f1bff89d05f3063940cb12f116a33a6f3939f0f4",
    "tied16/forest": "8b194d44c54f3fd4cf742de7d75cf246f13edd174382e42411b5aa07a27b0c10",
    "spread8/forest": "322fe26a4e59a4ae8a40c3cd8b2aee6e3879ad0a8c74108155f8cf182098cf79",
    "spread16/forest": "a341c440c6c332ebabcb711a13862d2aea6702156465639268aa18eecb62c61f",
    "tied8/gbt": "cdb9015d706e18dd875e0f04c4d04c9d4918ee92fcefa607b3c86cc8cf63bd4c",
    "tied16/gbt": "c994cb4d52e89cea427ddbf430e9e5a3051f40671ee70095550fa98689aaaeb0",
    "spread8/gbt": "7cc26a86c387a8d3697de6e569f42d39012c067b1a9dec4103d3ca74bb2af7ea",
    "spread16/gbt": "b95973309435bf76e85a1342d7ad3123ae54fae26386ec3dceccd1472a5a1732",
}

TRAINERS = {
    "logreg": train_logreg,
    "linear_svm": train_linear_svm,
    "random_forest": train_random_forest,
    "gbt": train_gbt,
}


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def check_pins(doc, key: str) -> None:
    """``doc`` hashes to its pin laid out as version 2 laid it out, and to
    its pre-order pin as it is."""
    assert digest(nested_doc(doc)) == DIGESTS[key]
    assert digest(doc) == PREORDER_DIGESTS.get(key, DIGESTS[key])


@pytest.mark.parametrize("name", DATASETS)
def test_forest_digest(name):
    model = train_random_forest([DATASETS[name]()], [11], n_trees=100, max_depth=8)[0]
    check_pins(model.to_json(), f"{name}/forest")


@pytest.mark.parametrize("d", [8, 16])
@pytest.mark.parametrize("name", DATASETS)
def test_forest_digest_with_several_drawn_features(name, d):
    model = train_random_forest([wide_dataset(name, d)], [11], n_trees=100, max_depth=8)[0]
    check_pins(model.to_json(), f"{name}{d}/forest")


@pytest.mark.parametrize("name", DATASETS)
def test_gbt_digest(name):
    model = train_gbt([DATASETS[name]()], [11], n_rounds=100)[0]
    check_pins(model.to_json(), f"{name}/gbt")


@pytest.mark.parametrize("d", [8, 16])
@pytest.mark.parametrize("name", DATASETS)
def test_gbt_digest_with_several_features(name, d):
    model = train_gbt([wide_dataset(name, d)], [11], n_rounds=100)[0]
    check_pins(model.to_json(), f"{name}{d}/gbt")


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
    assert models[0].to_json() == models[1].to_json()


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
    doc = {"metrics": dataclasses.asdict(metrics), "models": [m.to_json() for m in fitted[:-1]]}
    check_pins(doc, f"{name}/cv/{kind}")


@pytest.mark.parametrize("name", DATASETS)
def test_forest_independent_of_trees_per_pass(monkeypatch, name):
    ds = DATASETS[name]()
    n, n_trees = len(ds), 30
    docs = []
    for trees_per_pass in (1, 7, n_trees):
        monkeypatch.setattr(trees, "PASS_ROWS", trees_per_pass * n)
        model = train_random_forest([ds], [11], n_trees=n_trees, max_depth=6)[0]
        docs.append(model.to_json())
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
            train_gbt([ds], [s], n_rounds=n_rounds, max_depth=max_depth)[0].to_json()
            for ds, s in zip(datasets, seeds)
        ]
        with monkeypatch.context() as patch:
            patch.setattr(trees, "PASS_ROWS", pass_rows)
            many = train_gbt(datasets, seeds, n_rounds=n_rounds, max_depth=max_depth)
        assert [m.to_json() for m in many] == single


@pytest.mark.parametrize("pass_rows", [1, 150, trees.PASS_ROWS])
@pytest.mark.parametrize("n_trees", [1, 7, 30])
def test_forest_many_equals_one_at_a_time(monkeypatch, pass_rows, n_trees):
    # passes hold trees of several datasets, each with its own edge table
    datasets = unequal_datasets()
    seeds = [3, 1, 4, 1, 5, 9]
    for max_depth in (1, 2, 3, 4, 5):
        single = [
            train_random_forest([ds], [s], n_trees=n_trees, max_depth=max_depth)[0].to_json()
            for ds, s in zip(datasets, seeds)
        ]
        with monkeypatch.context() as patch:
            patch.setattr(trees, "PASS_ROWS", pass_rows)
            many = train_random_forest(
                datasets, seeds, n_trees=n_trees, max_depth=max_depth
            )
        assert [m.to_json() for m in many] == single


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
    old = [[0, 0.5], [1, 2.0], 1.0, 1.0, 0.0]
    new = [[0, 0.5], 1.0, 0.0]
    stump = [[1, 1.0], 0.0, 1.0]
    forest = MODEL_TYPES[ModelKind.RANDOM_FOREST]
    saved, collapsed = (forest.from_json({"trees": [t, stump]}) for t in (old, new))
    assert saved.nodes.left.size == collapsed.nodes.left.size + 2
    assert equal_leaf_splits(saved.nodes) == 1
    assert saved.to_json()["trees"] == [old, stump]
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
    kind = ModelKind.RANDOM_FOREST if name == "forest" else ModelKind.GBT
    doc = model.to_json()
    back = MODEL_TYPES[kind].from_json(json.loads(json.dumps(doc)))
    assert back.to_json() == doc
    X = np.random.default_rng(8).normal(size=(64, 2)) * 3.0
    X = np.vstack([X, unequal_datasets()[1].vectors])
    assert np.array_equal(back.predict(X), model.predict(X))
    if name != "forest":
        assert np.array_equal(back.decision_scores(X), model.decision_scores(X))


NUMBERS = st.sampled_from([0.0, -0.0, 0.5, -1.5]) | st.floats(-1e4, 1e4)


@st.composite
def node_tables(draw, d: int = 3) -> trees.NodeTable:
    """One to four trees, each a single leaf, a chain of up to 20 splits
    with a leaf on one side of each, or a tree up to 5 splits deep, their
    nodes in a random order, as the grower's level order is not pre-order.
    Thresholds and leaves hold +-0.0."""
    nodes = []  # (feature, threshold, left, right, value) in order of creation

    def node(*children) -> int:
        if not children:
            nodes.append((-1, 0.0, -1, -1, draw(NUMBERS)))
        else:
            nodes.append((draw(st.integers(0, d - 1)), draw(NUMBERS), *children, 0.0))
        return len(nodes) - 1

    def chain(length: int) -> int:
        if length == 0:
            return node()
        rest, leaf = chain(length - 1), node()
        return node(leaf, rest) if draw(st.booleans()) else node(rest, leaf)

    def bushy(depth: int) -> int:
        if depth == 5 or not draw(st.booleans()):
            return node()
        return node(bushy(depth + 1), bushy(depth + 1))

    shapes = st.sampled_from(["leaf", "chain", "bushy"])
    roots = []
    for shape in draw(st.lists(shapes, min_size=1, max_size=4)):
        if shape == "leaf":
            roots.append(node())
        elif shape == "chain":
            roots.append(chain(draw(st.integers(1, 20))))
        else:
            roots.append(bushy(0))
    place = np.array(draw(st.permutations(range(len(nodes)))))
    feature, threshold, left, right, value = (np.array(c) for c in zip(*nodes))
    at = np.empty_like(place)
    at[place] = np.arange(place.size)  # the node at each place
    return trees.NodeTable(
        roots=place[roots],
        feature=feature[at],
        threshold=threshold[at].astype(float),
        left=np.where(left[at] >= 0, place[left[at]], -1),
        right=np.where(right[at] >= 0, place[right[at]], -1),
        value=value[at].astype(float),
    )


def numbered_in_preorder(nodes: trees.NodeTable) -> trees.NodeTable:
    """``nodes`` renumbered in pre-order, tree after tree: the table that
    the version-2 reader built from a saved model."""
    order, roots = [], []
    for root in nodes.roots.tolist():
        roots.append(len(order))
        stack = [root]
        while stack:
            i = stack.pop()
            order.append(i)
            if nodes.left[i] >= 0:
                stack += (nodes.right[i], nodes.left[i])
    order = np.array(order)
    new_id = np.empty_like(order)
    new_id[order] = np.arange(order.size)
    left, right = nodes.left[order], nodes.right[order]
    return trees.NodeTable(
        roots=np.array(roots),
        feature=nodes.feature[order],
        threshold=nodes.threshold[order],
        left=np.where(left >= 0, new_id[left], -1),
        right=np.where(right >= 0, new_id[right], -1),
        value=nodes.value[order],
    )


def same_table(a: trees.NodeTable, b: trees.NodeTable) -> bool:
    """Equal columns, bit for bit, so that -0.0 differs from 0.0."""
    columns = ("roots", "feature", "threshold", "left", "right", "value")
    return all(
        getattr(a, c).dtype == getattr(b, c).dtype
        and getattr(a, c).tobytes() == getattr(b, c).tobytes()
        for c in columns
    )


@settings(max_examples=150, deadline=None)
@given(nodes=node_tables(), init_score=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_preorder_tree_lists_round_trip_bit_for_bit(nodes, init_score, seed):
    lists = nodes.to_json()
    # the version-2 renderer's nested trees, flattened, give the same lists
    assert json.dumps([preorder(tree) for tree in nested_render(nodes)]) == json.dumps(lists)
    rng = np.random.default_rng(seed)
    values = np.concatenate([nodes.threshold, [0.0, -0.0]])
    X = np.vstack([rng.choice(values, size=(24, 3)), rng.normal(size=(8, 3)) * 1e3])
    models = [
        (ModelKind.RANDOM_FOREST, trees.ForestModel(nodes)),
        (ModelKind.GBT, trees.GBTModel(init_score=init_score, learning_rate=0.1, nodes=nodes)),
    ]
    for kind, model in models:
        text = json.dumps(model.to_json(), sort_keys=True)
        back = MODEL_TYPES[kind].from_json(json.loads(text))
        assert json.dumps(back.to_json(), sort_keys=True) == text
        assert same_table(back.nodes, numbered_in_preorder(nodes))
        assert back.nodes.leaves(X).tobytes() == model.nodes.leaves(X).tobytes()
        assert np.array_equal(back.predict(X), model.predict(X))
        if kind is ModelKind.GBT:
            assert back.decision_scores(X).tobytes() == model.decision_scores(X).tobytes()


def test_a_gbt_score_that_overflows_exp_predicts_zero_without_a_warning():
    doc = {"init_score": 0.0, "learning_rate": 1.0, "trees": [[[0, 0.0], -7068.0, 7068.0]]}
    model = trees.GBTModel.from_json(doc)
    X = np.array([[-1.0], [1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert model.decision_scores(X).tolist() == [-7068.0, 7068.0]
        assert model.predict(X).tolist() == [0, 1]


def test_a_tree_deeper_than_64_splits_walks_to_its_leaves():
    # split i sends x <= i to a leaf 0.0 and the rest on down the chain
    tree = [entry for i in range(100) for entry in ([0, float(i)], 0.0)] + [1.0]
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
    assert all(len(tree) == 1 for tree in forest.to_json()["trees"])
    gbt = train_gbt([ds], [0], n_rounds=2)[0]
    assert all(len(tree) == 1 for tree in gbt.to_json()["trees"])
    assert np.array_equal(gbt.predict(np.zeros((2, 2))), [1, 1])
