"""The linear learners train many datasets in lockstep yet give the same models.

The digests below were recorded with the one-dataset-at-a-time trainers
that the lockstep loops replaced: any change to the last bit of a weight,
a bias or a validation F1 changes them.
"""

import hashlib
import json

import numpy as np
import pytest

from cohortsense.core import EngineConfig, LearnerConfig, ValidationError
from cohortsense.ensemble import _fit_set, _set_to_json
from cohortsense.learners import Dataset, linear, model_to_json

DIGESTS = {
    "logreg/d2/cold": "343df8349b0ddf612ae2cb747d1388920a27ea3bc69413c1403ea1e2356abe8f",
    "logreg/d2/warm": "940c7416e9009764b2a1f45d1984719e886e2ddb310af7352e2b04af97d1f5b4",
    "logreg/d3/cold": "199cab4c67a267c092c16e09ff2d32bf8c326fa821f50783d0beea0bfc3a95d4",
    "logreg/d3/warm": "f2385e6e11af32a4a97c7bc28dbbe8535c628ef4595a3c25827961ffb32f1d3b",
    "linear_svm/d2/cold": "35384f82beff8afbdf2525ec07c2b9c60f43d4fa1018ed7e8d280cb0d3016559",
    "linear_svm/d2/warm": "810557b403cdbd47105b0432fbe1815ffe3b448ca5fed72e935e27f1dbe3249e",
    "linear_svm/d3/cold": "33560ec68420b48477996025e6449dd5d599e60dbddf6abc773e025a4ac31aec",
    "linear_svm/d3/warm": "713cb0b2b71db1c2228e10d1dc3532122e0f65e9ee72c5bca9e82075174a0274",
    "logreg/d2/long": "cb6e89e5758aed12fe46291190340d2f12c92f33936ed8ee398e308eb12fa070",
    "fit_set/cv": "dc6dc5706035b90920a1030184362b856194cf5b0d78077219001b7b910dbadc",
    "fit_set/no_cv": "e349f96541bfb8225378a571757b48d0e6cd2b98f0ceb1061a4afe927b5ec675",
}

MODELS = {"logreg": linear.LogRegModel, "linear_svm": linear.LinearSVMModel}


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def linear_dataset(n: int, d: int, seed: int) -> Dataset:
    """Overlapping classes on scaled features, with exact zeros and repeated rows."""
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0, size=d)
    vectors[: n // 5, 0] = 0.0
    vectors[n // 2 : n // 2 + 4] = vectors[n // 2]
    labels = (vectors @ rng.normal(size=d) + rng.normal(0.0, 1.0, n) > 0.3).astype(int)
    labels[:2] = (0, 1)
    return Dataset(vectors, labels, tuple(f"r{seed}_{i:04d}" for i in range(n)))


def warm_start(kind: str, d: int):
    return MODELS[kind](weights=np.linspace(-0.5, 0.7, d), bias=0.25)


def train_one(kind: str, dataset: Dataset, seed: int, init=None):
    trainer = linear.train_logreg if kind == "logreg" else linear.train_linear_svm
    return trainer(dataset, seed, init=init)


def one_dataset_doc(kind: str, d: int, warm: bool) -> dict:
    init = warm_start(kind, d) if warm else None
    return model_to_json(train_one(kind, linear_dataset(130, d, seed=d), 7, init=init))


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
        model_set, events = _fit_set("G9", labeled_rows(40, 1, 3), FIT_CONFIG, 5, None)
        return {"sets": [_set_to_json(model_set)], "events": events}
    # 10 folds; the second fit warm-starts its linear kinds from the first
    first, events = _fit_set("generic", labeled_rows(90, 14, 4), FIT_CONFIG, 5, None)
    second, more = _fit_set("generic", labeled_rows(120, 25, 6), FIT_CONFIG, 6, first)
    return {"sets": [_set_to_json(first), _set_to_json(second)], "events": events + more}


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", list(MODELS))
def test_one_dataset_digest(kind, d, warm):
    doc = one_dataset_doc(kind, d, warm)
    assert digest(doc) == DIGESTS[f"{kind}/d{d}/{'warm' if warm else 'cold'}"]


def long_logreg_doc() -> dict:
    return model_to_json(linear.train_logreg(linear_dataset(130, 2, seed=3), 7, iterations=2000))


def test_long_logreg_digest():
    # near convergence a step is kept or halved on the last bits of the loss
    assert digest(long_logreg_doc()) == DIGESTS["logreg/d2/long"]


@pytest.mark.parametrize("case", ["cv", "no_cv"])
def test_fit_set_digest(case):
    assert digest(fit_set_doc(case)) == DIGESTS[f"fit_set/{case}"]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("count", [1, 3, 11])
@pytest.mark.parametrize("kind", list(MODELS))
def test_many_equals_one_at_a_time(kind, count, warm):
    # unequal lengths, so that every dataset but the longest is padded
    datasets = [linear_dataset(23 + 37 * ((5 * i) % 11), 3, seed=40 + i) for i in range(count)]
    seeds = list(range(count))
    init = warm_start(kind, 3) if warm else None
    many = getattr(linear, f"train_{kind}_many")(datasets, seeds, init=init)
    single = [train_one(kind, ds, s, init=init) for ds, s in zip(datasets, seeds)]
    assert [model_to_json(m) for m in many] == [model_to_json(m) for m in single]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_logreg_many_with_repeated_lengths_equals_one_at_a_time(warm):
    # as CV hands it over: SMOTE'd folds of two lengths in no order, and a
    # longer deployed set; the equal-length folds are summed together
    lengths = [141, 143, 143, 141, 141, 143, 141, 143, 143, 141, 310]
    datasets = [linear_dataset(n, 3, seed=60 + i) for i, n in enumerate(lengths)]
    seeds = list(range(len(lengths)))
    init = warm_start("logreg", 3) if warm else None
    many = linear.train_logreg_many(datasets, seeds, iterations=150, init=init)
    single = [linear.train_logreg(ds, s, iterations=150, init=init) for ds, s in zip(datasets, seeds)]
    assert [model_to_json(m) for m in many] == [model_to_json(m) for m in single]


@pytest.mark.parametrize("kind", list(MODELS))
def test_many_rejects_bad_inputs(kind):
    train_many = getattr(linear, f"train_{kind}_many")
    good = linear_dataset(30, 2, seed=1)
    single_class = Dataset(np.zeros((3, 2)), np.ones(3, dtype=int), ("a", "b", "c"))
    with pytest.raises(ValidationError, match="both classes"):
        train_many([good, single_class], [0, 0])
    with pytest.raises(ValidationError, match="seeds"):
        train_many([good], [0, 1])
    with pytest.raises(ValidationError, match="dimension"):
        train_many([good, linear_dataset(30, 3, seed=2)], [0, 0])
    assert train_many([], []) == []
