"""The tree learners grow many trees per pass yet give the same models.

The digests below were recorded with the one-tree-at-a-time grower that
the multi-root grower replaced: any change to a split, a leaf value or a
threshold changes them. The GBT digests drop the per-round training
losses that models no longer store. The forests of eight and sixteen
features, whose nodes draw two and four of them, were recorded with the
multi-root grower as it was before it binned only the drawn features of
the distinct bootstrap rows.
"""

import hashlib
import json

import numpy as np
import pytest

from cohortsense.core import ValidationError
from cohortsense.learners import (
    Dataset,
    kfold_cv,
    model_from_json,
    model_to_json,
    train_gbt,
    train_gbt_many,
    train_linear_svm,
    train_logreg,
    train_random_forest,
    train_random_forest_many,
)
from cohortsense.learners import trees
from cohortsense.learners.base import derive_seed, derive_seeds


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
    "tied/forest": "db916fafdd3b752390e25aecb330e2606bf393535a52e359aa93a3399563cb1a",
    "tied/gbt": "089a9f0c0114211a6898e1d2232644ecdd6f6f4af578e99673527387f6cf39d5",
    "tied/cv/logreg": "49fc8b17db9e334075d5e8470e146d25388ea1c6bf1b07a0df352ba5ba35c792",
    "tied/cv/linear_svm": "a1643e81896e0a74e969e3b118c97cbb9d7aae9e5f0efb29e69aa466f5b72d43",
    "tied/cv/random_forest": "e74994e8b5890172191a31eb27a700a1f77afed01edcd032007c54ca0498f38b",
    "tied/cv/gbt": "620deb7651f93302b30e86cd2630db02c8f6d942d472df3efa13463b6942b45d",
    "spread/forest": "b58f3412cd5270cfefb709d0078b65859de13fc64a847332eea05a04fe5b7880",
    "spread/gbt": "1449b8fd8652db4cc5ff08fce065867e026a0c927400887560af3bf091e9ff80",
    "spread/cv/logreg": "06af45cae45bcdfef14bdbe1ac7bd0fd696991827b51f4287b030453fc7ec037",
    "spread/cv/linear_svm": "4097dcdf09b4c9cc3ba2b443956886940aa570be826125ecaac85dc62f3c2ed3",
    "spread/cv/random_forest": "e4f3343decdd57b7cff1419ccd1ad78aa80b412d0ce6411ba895f99720042406",
    "spread/cv/gbt": "f96750976dc218eda2d77f20fc469c7f50fe18619db3f6beca8b000ae92c4dfd",
    # two and four drawn features per node
    "tied8/forest": "70489da85d773b71cc80b43b7190132dd23734c7bb6894e677b24f8376671a03",
    "tied16/forest": "86ec10fe2c6c9a4636d8bb8b135c987cae3fb4e6f5145cf498b932bf8325623f",
    "spread8/forest": "1c7fbec8ee6bd5976a5e8b831f056da92e1b73d7397ce192c5e99ac8a676eaf0",
    "spread16/forest": "2cf36c1943d3cb159f2ae32eaa235625082d76c74ac4c1c4697261ab6a9dca47",
}

PER_FOLD = {
    "logreg": train_logreg,
    "linear_svm": train_linear_svm,
    "random_forest": train_random_forest,
}


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", DATASETS)
def test_forest_digest(name):
    model = train_random_forest(DATASETS[name](), seed=11, n_trees=100, max_depth=8)
    assert digest(model_to_json(model)) == DIGESTS[f"{name}/forest"]


@pytest.mark.parametrize("d", [8, 16])
@pytest.mark.parametrize("name", DATASETS)
def test_forest_digest_with_several_drawn_features(name, d):
    model = train_random_forest(wide_dataset(name, d), seed=11, n_trees=100, max_depth=8)
    assert digest(model_to_json(model)) == DIGESTS[f"{name}{d}/forest"]


@pytest.mark.parametrize("name", DATASETS)
def test_gbt_digest(name):
    model = train_gbt(DATASETS[name](), seed=11, n_rounds=100)
    assert digest(model_to_json(model)) == DIGESTS[f"{name}/gbt"]


@pytest.mark.parametrize("kind", ["logreg", "linear_svm", "random_forest", "gbt"])
@pytest.mark.parametrize("name", DATASETS)
def test_kfold_cv_with_smote_digest(name, kind):
    fitted = []

    def train_fn(datasets, seeds):
        if kind == "gbt":
            models = train_gbt_many(datasets, seeds)
        else:
            models = [PER_FOLD[kind](ds, s) for ds, s in zip(datasets, seeds)]
        fitted.extend(models)
        return models

    metrics = kfold_cv(DATASETS[name](), 5, train_fn, seed=13, smote_neighbors=5)
    doc = {"metrics": metrics.as_row(), "models": [model_to_json(m) for m in fitted]}
    assert digest(doc) == DIGESTS[f"{name}/cv/{kind}"]


@pytest.mark.parametrize("name", DATASETS)
def test_forest_independent_of_trees_per_pass(monkeypatch, name):
    ds = DATASETS[name]()
    n, n_trees = len(ds), 30
    docs = []
    for trees_per_pass in (1, 7, n_trees):
        monkeypatch.setattr(trees, "PASS_ROWS", trees_per_pass * n)
        model = train_random_forest(ds, seed=11, n_trees=n_trees, max_depth=6)
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
            model_to_json(train_gbt(ds, s, n_rounds=n_rounds, max_depth=max_depth))
            for ds, s in zip(datasets, seeds)
        ]
        with monkeypatch.context() as patch:
            patch.setattr(trees, "PASS_ROWS", pass_rows)
            many = train_gbt_many(datasets, seeds, n_rounds=n_rounds, max_depth=max_depth)
        assert [model_to_json(m) for m in many] == single


@pytest.mark.parametrize("pass_rows", [1, 150, trees.PASS_ROWS])
@pytest.mark.parametrize("n_trees", [1, 7, 30])
def test_forest_many_equals_one_at_a_time(monkeypatch, pass_rows, n_trees):
    # passes hold trees of several datasets, each with its own edge table
    datasets = unequal_datasets()
    seeds = [3, 1, 4, 1, 5, 9]
    for max_depth in (1, 2, 3, 4, 5):
        single = [
            model_to_json(train_random_forest(ds, s, n_trees=n_trees, max_depth=max_depth))
            for ds, s in zip(datasets, seeds)
        ]
        with monkeypatch.context() as patch:
            patch.setattr(trees, "PASS_ROWS", pass_rows)
            many = train_random_forest_many(
                datasets, seeds, n_trees=n_trees, max_depth=max_depth
            )
        assert [model_to_json(m) for m in many] == single


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -7])
@pytest.mark.parametrize("label", ["tree", "bäume→🌲"])
@pytest.mark.parametrize("count", [0, 1, 257])
def test_derive_seeds_equals_derive_seed(seed, label, count):
    assert derive_seeds(seed, label, count) == [derive_seed(seed, label, t) for t in range(count)]


@pytest.mark.parametrize(
    "train_many", [train_gbt_many, train_random_forest_many], ids=["gbt", "forest"]
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
    yield "forest", train_random_forest(ds, seed=2, n_trees=9, max_depth=5)
    yield "gbt", train_gbt(ds, seed=2, n_rounds=12)
    yield "gbt0", train_gbt(ds, seed=2, n_rounds=0)


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


def test_gbt_many_rejects_single_class_and_seed_mismatch():
    good, bad = unequal_datasets()[0], Dataset(np.zeros((3, 2)), np.ones(3, dtype=int), ("a", "b", "c"))
    with pytest.raises(ValidationError, match="both classes"):
        train_gbt_many([good, bad], [0, 0])
    with pytest.raises(ValidationError, match="seeds"):
        train_gbt_many([good], [0, 1])


def test_all_constant_features_grow_single_leaves():
    ds = Dataset(np.ones((6, 2)), np.array([0, 1, 0, 1, 1, 1]), tuple("abcdef"))
    forest = train_random_forest(ds, seed=0, n_trees=3, max_depth=3)
    assert all("leaf" in doc for doc in model_to_json(forest)["trees"])
    gbt = train_gbt(ds, seed=0, n_rounds=2)
    assert all("leaf" in doc for doc in model_to_json(gbt)["trees"])
    assert np.array_equal(gbt.predict(np.zeros((2, 2))), [1, 1])
