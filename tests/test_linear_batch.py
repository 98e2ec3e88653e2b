"""The linear learners train many datasets in lockstep yet give the same models.

The digests below were recorded with the one-dataset-at-a-time trainers
that the lockstep loops replaced: any change to the last bit of a weight,
a bias or a validation F1 changes them. The logreg and model-set digests
were recorded again when damped Newton replaced logreg's gradient descent,
the SVM and model-set digests when the SVM moved to the same solver on
the squared hinge, and the CV model-set digest when GBT moved to (binned
row, label) groups and again when the four kinds came to share one CV
split per set. The models-only digest of that set, recorded before the
shared split, shows that its deployed models did not move. Both were
recorded again when the grower came to drop every forest split whose two
children are leaves of one value; with the forests' trees removed, they
hash as before. Every digest here was recorded again when models stopped
carrying a schema version and a kind of their own: each is the hash of
the earlier document with those two keys deleted from every model. The
set digests hash the trees as checkpoints of version 2 laid them out,
one nested dict per node: when each tree became one pre-order list, the
tests came to pass their documents through `nested_trees.nested_doc` to
check them, and the pre-order documents' own digests were pinned beside
them.
"""

import hashlib
import json

import numpy as np
import pytest

from cohortsense import ensemble
from cohortsense.core import EngineConfig, LearnerConfig, ValidationError
from cohortsense.ensemble import ModelPool, _fit_set, _set_to_json, refresh_generic
from cohortsense.learners import Dataset, linear, smote, validation
from cohortsense.learners.base import KIND_ORDER, derive_seed

from nested_trees import nested_doc

DIGESTS = {
    "logreg/d2/cold": "7e1342930f516fa3cbd1a1bf6381b7b9b57507a6e2ac2541f8d305f67f2e93d3",
    "logreg/d3/cold": "e55488258850f4945220b5e03ef7d4db85923abdd733f0a1cc26bd5056759765",
    "linear_svm/d2/cold": "f80b1b91fd7e7ac8b96e75ac88a5d7e5a14f874e29344b503ded60d921cf1e96",
    "linear_svm/d3/cold": "25b9fbb32f4c9c75930c647abde2b0771e8c3159a554466114db94f6af03f790",
    "logreg/d2/long": "5e6e1f8d658b101b6461c6b6683bd86d185e584c385db56e6fe33f9505759915",
    "fit_set/cv": "b200d57cf369e6a0e30203de3983f98afc5b7fea9876a96eb59724196c9371c7",
    "fit_set/cv/models": "38236aa06a331554b8d4c7fa40a74ff2e9e1a46b3eea22f145416b8286d7b942",
    "fit_set/no_cv": "055afdb65ac631b46c99a13f9d9184b391ea16bb32d373f4f09e25de20129dbc",
    "refresh_generic/no_cv": "149ac43791abc53ce932b4461aa847760ab57adbd711e404593fad289704f7ff",
}

# the set documents with each tree one pre-order list
PREORDER_DIGESTS = {
    "fit_set/cv": "8a15bf69fff5a26e9c131c962e66def154eb3d27bee981ff3e1a1c8eff1a1f31",
    "fit_set/cv/models": "2ea7db5a19298a032b8d22705a391716af20f9b7d99461865a48e71da927655b",
    "fit_set/no_cv": "9aff55ba63ba223964257e4851c488cb1f4400567b4a4990281617d5e45e2206",
    "refresh_generic/no_cv": "5f7fb4b9b05183fa2ea7442f2e77bb072fd04154b201ad771c7dbd42b363f0d0",
}

KINDS = ["logreg", "linear_svm"]


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def check_pins(doc, key: str) -> None:
    """``doc`` hashes to its pin laid out as version 2 laid it out, and to
    its pre-order pin as it is."""
    assert digest(nested_doc(doc)) == DIGESTS[key]
    assert digest(doc) == PREORDER_DIGESTS[key]


def linear_dataset(n: int, d: int, seed: int) -> Dataset:
    """Overlapping classes on scaled features, with exact zeros and repeated rows."""
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0, size=d)
    vectors[: n // 5, 0] = 0.0
    vectors[n // 2 : n // 2 + 4] = vectors[n // 2]
    labels = (vectors @ rng.normal(size=d) + rng.normal(0.0, 1.0, n) > 0.3).astype(int)
    labels[:2] = (0, 1)
    return Dataset(vectors, labels, tuple(f"r{seed}_{i:04d}" for i in range(n)))


def train_one(kind: str, dataset: Dataset, seed: int):
    return getattr(linear, f"train_{kind}")([dataset], [seed])[0]


def one_dataset_doc(kind: str, d: int) -> dict:
    return train_one(kind, linear_dataset(130, d, seed=d), 7).to_json()


def labeled_rows(n: int, ones: int, seed: int) -> Dataset:
    """``n`` rows in 2-d, the ``ones`` rows with the largest noisy score labelled 1."""
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, 2))
    score = vectors[:, 0] - 0.5 * vectors[:, 1] + rng.normal(0.0, 0.8, n)
    labels = np.zeros(n, dtype=int)
    labels[np.argsort(score)[n - ones :]] = 1
    return Dataset(vectors, labels, tuple(f"P{i:03d}_w01" for i in range(n)))


FIT_CONFIG = EngineConfig(learners=LearnerConfig(forest_trees=12, gbt_rounds=15))


def fit_set_doc(case: str) -> dict:
    if case == "no_cv":  # one row of class 1: k = 1, so no folds
        model_set, events = _fit_set("G9", labeled_rows(40, 1, 3), FIT_CONFIG, 5)
        return {"sets": [_set_to_json(model_set)], "events": events}
    # 10 folds
    first, events = _fit_set("generic", labeled_rows(90, 14, 4), FIT_CONFIG, 5)
    second, more = _fit_set("generic", labeled_rows(120, 25, 6), FIT_CONFIG, 6)
    return {"sets": [_set_to_json(first), _set_to_json(second)], "events": events + more}


def cases(args) -> list:
    """(kind, arg) for each kind and arg; the ids end in "cold", as every
    fit starts from zero."""
    return [pytest.param(kind, arg, id=f"{kind}-{arg}-cold") for kind in KINDS for arg in args]


@pytest.mark.parametrize(("kind", "d"), cases([2, 3]))
def test_one_dataset_digest(kind, d):
    assert digest(one_dataset_doc(kind, d)) == DIGESTS[f"{kind}/d{d}/cold"]


def long_logreg_doc() -> dict:
    [model] = linear.train_logreg([linear_dataset(130, 2, seed=3)], [7])
    return model.to_json()


def test_long_logreg_digest():
    # at the optimum a step is kept, halved or frozen on the last bits of the loss
    assert digest(long_logreg_doc()) == DIGESTS["logreg/d2/long"]


@pytest.mark.parametrize("case", ["cv", "no_cv"])
def test_fit_set_digest(case):
    check_pins(fit_set_doc(case), f"fit_set/{case}")


def test_fit_set_models_digest():
    # the deployed models alone, without the validation F1s that score them
    doc = fit_set_doc("cv")
    for model_set in doc["sets"]:
        del model_set["validation_f1"]
    check_pins(doc, "fit_set/cv/models")


def test_fit_set_kinds_share_one_split(monkeypatch):
    received = {}  # kind -> (dataset, its vectors and labels when received) per call
    for kind in KIND_ORDER:
        name = f"train_{kind.value}"

        def record(datasets, seeds, _kind=kind, _train=getattr(ensemble, name), **options):
            received[_kind] = [(ds, ds.vectors.copy(), ds.labels.copy()) for ds in datasets]
            return _train(datasets, seeds, **options)

        monkeypatch.setattr(ensemble, name, record)
    smote_calls = []
    for module in (ensemble, validation):

        def count(*args, _smote=module.smote):
            smote_calls.append(args)
            return _smote(*args)

        monkeypatch.setattr(module, "smote", count)

    # 14 of 90 rows in class 1: 10 folds, each training fold needs SMOTE
    dataset = labeled_rows(90, 14, 4)
    _fit_set("generic", dataset, FIT_CONFIG, 5)
    k = FIT_CONFIG.cv_folds
    assert len(smote_calls) == k + 4  # was 4 * (k + 1), each kind SMOTEing its own folds
    folds = received[KIND_ORDER[0]][:-1]
    assert len(folds) == k
    for kind in KIND_ORDER:
        *kind_folds, (deployed, vectors, labels) = received[kind]
        for (ds, ds_vectors, ds_labels), (_, fold_vectors, fold_labels) in zip(kind_folds, folds):
            assert np.array_equal(ds_vectors, fold_vectors)
            assert np.array_equal(ds_labels, fold_labels)
            # and no trainer changed them in place
            assert np.array_equal(ds.vectors, fold_vectors)
            assert np.array_equal(ds.labels, fold_labels)
        # the deployed set is SMOTE-balanced with the kind's own seed
        kind_seed = derive_seed(FIT_CONFIG.rng_seed, "train", "generic", kind.value, 5)
        own = smote(dataset, FIT_CONFIG.smote_neighbors, derive_seed(kind_seed, "smote"))
        assert np.array_equal(vectors, own.vectors) and np.array_equal(labels, own.labels)
        assert deployed.participant_ids == own.participant_ids


@pytest.mark.parametrize(
    ("n", "ones", "seed", "folds"), [(40, 1, 3, 0), (90, 14, 4, 10)], ids=["no_cv", "cv"]
)
def test_fit_set_fits_every_model_inside_one_kfold_cv_call(monkeypatch, n, ones, seed, folds):
    calls = []  # "kfold_cv", then (kind, open kfold_cv calls, datasets) per trainer call
    depth = [0]

    def in_cv(*args, _cv=ensemble.kfold_cv, **kwargs):
        calls.append("kfold_cv")
        depth[0] += 1
        try:
            return _cv(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(ensemble, "kfold_cv", in_cv)
    for kind in KIND_ORDER:
        name = f"train_{kind.value}"

        def record(datasets, seeds, _kind=kind, _train=getattr(ensemble, name), **options):
            calls.append((_kind, depth[0], len(datasets)))
            return _train(datasets, seeds, **options)

        monkeypatch.setattr(ensemble, name, record)

    _, events = _fit_set("generic", labeled_rows(n, ones, seed), FIT_CONFIG, 5)
    # each kind trains its folds and its deployed set in one call, inside kfold_cv
    assert calls == ["kfold_cv"] + [(kind, 1, folds + 1) for kind in KIND_ORDER]
    assert len(events) == (4 if folds == 0 else 0)


def test_refresh_generic_without_cv_digest():
    # 29 rows of class 0 and one of class 1: k = 1, so each kind trains
    # once, on rows too few to SMOTE, and is scored on its training data
    pool, events = refresh_generic(ModelPool(), labeled_rows(30, 1, 8), FIT_CONFIG, 3, week=2)
    assert events == [
        f"generic: class counts 29/1 too small for CV; "
        f"validation_f1 for {kind} uses training predictions"
        for kind in ("logreg", "linear_svm", "random_forest", "gbt")
    ]
    check_pins(_set_to_json(pool.generic), "refresh_generic/no_cv")


@pytest.mark.parametrize(("kind", "count"), cases([1, 3, 11]))
def test_many_equals_one_at_a_time(kind, count):
    # unequal lengths, so that every dataset but the longest is padded
    datasets = [linear_dataset(23 + 37 * ((5 * i) % 11), 3, seed=40 + i) for i in range(count)]
    seeds = list(range(count))
    many = getattr(linear, f"train_{kind}")(datasets, seeds)
    single = [train_one(kind, ds, s) for ds, s in zip(datasets, seeds)]
    assert [m.to_json() for m in many] == [m.to_json() for m in single]


def many_and_single_with_repeated_lengths(train) -> tuple[list, list]:
    # as CV hands it over: SMOTE'd folds of two lengths in no order, and a
    # longer deployed set; the equal-length folds are summed together
    lengths = [141, 143, 143, 141, 141, 143, 141, 143, 143, 141, 310]
    datasets = [linear_dataset(n, 3, seed=60 + i) for i, n in enumerate(lengths)]
    seeds = list(range(len(lengths)))
    many = train(datasets, seeds)
    single = [train([ds], [s])[0] for ds, s in zip(datasets, seeds)]
    return [m.to_json() for m in many], [m.to_json() for m in single]


def test_logreg_many_with_repeated_lengths_equals_one_at_a_time():
    many, single = many_and_single_with_repeated_lengths(linear.train_logreg)
    assert many == single


def test_svm_many_with_repeated_lengths_equals_one_at_a_time():
    many, single = many_and_single_with_repeated_lengths(linear.train_linear_svm)
    assert many == single


@pytest.mark.parametrize("kind", KINDS)
def test_many_rejects_bad_inputs(kind):
    train_many = getattr(linear, f"train_{kind}")
    good = linear_dataset(30, 2, seed=1)
    single_class = Dataset(np.zeros((3, 2)), np.ones(3, dtype=int), ("a", "b", "c"))
    with pytest.raises(ValidationError, match="both classes"):
        train_many([good, single_class], [0, 0])
    with pytest.raises(ValidationError, match="seeds"):
        train_many([good], [0, 1])
    with pytest.raises(ValidationError, match="dimension"):
        train_many([good, linear_dataset(30, 3, seed=2)], [0, 0])
    assert train_many([], []) == []
