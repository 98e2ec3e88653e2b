"""Tests for label derivation, weekly batches, and config loading."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cohortsense.core import (
    ConfigError,
    DaySegment,
    EngineConfig,
    LearnerConfig,
    ValidationError,
    apportion,
    label_from_score,
    load_config,
    seed_entropy,
)
from cohortsense.synthgen import _CSV_COLUMNS, load_batches

from columns import batch_of


def test_label_threshold_is_strict():
    assert label_from_score(21, 20) == 1
    assert label_from_score(20, 20) == 0


def test_label_range_endpoints():
    assert label_from_score(10) == 0
    assert label_from_score(40) == 1


def test_label_rejects_out_of_range():
    with pytest.raises(ValidationError, match="9"):
        label_from_score(9)
    with pytest.raises(ValidationError, match="41"):
        label_from_score(41)


def test_label_monotone_in_score():
    labels = [label_from_score(s) for s in range(10, 41)]
    assert labels == sorted(labels)


def test_record_week_bounds():
    def record(week):
        return batch_of([("p", "2019-04-01", DaySegment.NIGHT, {}, {})], week=week)

    with pytest.raises(ValidationError):
        record(0)
    assert record(11).week == 11  # no upper bound: a study may run past week 10


def test_batch_week_consistency(tmp_path):
    # a week-2 row in the week-1 file
    (tmp_path / "labels.csv").write_text("participant_id,score\n", encoding="utf-8")
    (tmp_path / "week_1.csv").write_text(
        ",".join(_CSV_COLUMNS) + "\n"
        + ",".join(["p", "2", "2019-04-08", "night"] + ["1.0"] * 7 + ["a"]) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(ValidationError):
        load_batches(tmp_path)


def test_batch_labeled_participant_needs_records():
    row = ("p", "2019-04-01", DaySegment.NIGHT, {"x": 1.0}, {})
    with pytest.raises(ValidationError):
        batch_of([row], labels={"q": 25})


def test_config_defaults():
    config = EngineConfig()
    assert config.eps == 0.5
    assert config.density_fraction == 0.1
    assert config.cv_folds == 10
    assert config.smote_neighbors == 5
    assert config.score_threshold == 20
    assert config.pca_variance_target == 0.90


def test_config_validation():
    with pytest.raises(ConfigError):
        EngineConfig(eps=0.0)
    with pytest.raises(ConfigError):
        EngineConfig(density_fraction=1.5)
    with pytest.raises(ConfigError):
        EngineConfig(cv_folds=1)


@pytest.mark.parametrize(
    "make, kwargs",
    [
        (EngineConfig, {"holdout_fraction": 1.5}),
        (EngineConfig, {"holdout_fraction": 0.0}),
        (EngineConfig, {"pca_variance_target": 2.0}),
        (EngineConfig, {"min_pts_floor": -3}),
        (EngineConfig, {"rng_seed": -1}),
        (EngineConfig, {"score_threshold": 40}),
        (EngineConfig, {"eps": float("nan")}),
        (EngineConfig, {"eps": "0.5"}),
        (EngineConfig, {"cv_folds": True}),
        (EngineConfig, {"cv_folds": 3.0}),
        (EngineConfig, {"learners": {"forest_trees": 5}}),
        (LearnerConfig, {"forest_trees": 0}),
        (LearnerConfig, {"forest_trees": 10**12}),
        (LearnerConfig, {"gbt_rounds": 10_001}),
        (LearnerConfig, {"svm_l2": 0.0}),
        (LearnerConfig, {"gbt_learning_rate": "fast"}),
        (LearnerConfig, {"gbt_rounds": False}),
        (LearnerConfig, {"gbt_learning_rate": 1e300}),
        (LearnerConfig, {"gbt_learning_rate": 1.5}),
    ],
)
def test_config_rejects_out_of_range_values_and_wrong_types(make, kwargs):
    (name,) = kwargs
    with pytest.raises(ConfigError, match=name):
        make(**kwargs)


def test_tree_counts_take_their_bounds():
    config = LearnerConfig(forest_trees=1, gbt_rounds=10_000)
    assert (config.forest_trees, config.gbt_rounds) == (1, 10_000)
    config = LearnerConfig(forest_trees=10_000, gbt_rounds=1)
    assert (config.forest_trees, config.gbt_rounds) == (10_000, 1)


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps({"eps": 0.4, "rng_seed": 7, "learners": {"forest_trees": 20}}),
        encoding="utf-8",
    )
    config = load_config(path)
    assert config.eps == 0.4
    assert config.rng_seed == 7
    assert config.learners.forest_trees == 20
    assert config.density_fraction == 0.1  # untouched default


def test_config_unknown_keys_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"eps": 0.4, "epsilon": 1, "bogus": 2}), encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "bogus" in str(err.value) and "epsilon" in str(err.value)


def test_config_unknown_learner_keys_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"learners": {"tree_count": 5}}), encoding="utf-8")
    with pytest.raises(ConfigError, match="tree_count"):
        load_config(path)


def test_config_invalid_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


# ---------------------------------------------------------------- apportionment


def holdout_quotas(target: int, sizes: dict[int, int]) -> dict[int, int]:
    """The hold-out's class quotas as the engine computed them before the
    shared helper: floors of the exact shares, then one more each,
    round-robin by falling remainder, while a class has participants left."""
    total = sum(sizes.values())
    ideal = {lab: target * n / total for lab, n in sizes.items() if n}
    counts = {lab: math.floor(x) for lab, x in ideal.items()}
    leftovers = sorted(ideal, key=lambda lab: (-(ideal[lab] - math.floor(ideal[lab])), lab))
    i = 0
    while sum(counts.values()) < target and leftovers:
        lab = leftovers[i % len(leftovers)]
        if counts[lab] < sizes[lab]:
            counts[lab] += 1
        i += 1
    return counts


@given(
    zeros=st.integers(0, 300),
    ones=st.integers(0, 300),
    fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_apportion_equals_the_holdout_quota_loop(zeros, ones, fraction):
    sizes = {0: zeros, 1: ones}
    if not zeros + ones:
        return
    target = int(round(fraction * (zeros + ones)))
    quotas = apportion(target, sizes, sizes)
    assert {lab: n for lab, n in quotas.items() if sizes[lab]} == holdout_quotas(target, sizes)
    assert sum(quotas.values()) == target


@given(
    groups=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=1, max_size=6),
    amount=st.integers(0, 200),
)
def test_apportion_keeps_within_capacity_and_hands_out_the_amount(groups, amount):
    weights = {f"G{i}": float(w) for i, (w, _) in enumerate(groups)}
    capacity = {f"G{i}": c for i, (_, c) in enumerate(groups)}
    if amount > sum(capacity.values()):
        with pytest.raises(ConfigError):
            apportion(amount, weights, capacity)
        return
    counts = apportion(amount, weights, capacity)
    assert sum(counts.values()) == amount
    assert all(0 <= counts[g] <= capacity[g] for g in counts)


def test_seed_entropy_words():
    # the seed's two halves, an int part's low 32 bits, a str part's UTF-8 bytes
    words = seed_entropy(2**32 + 5, 2**32 + 7, "é")
    assert words.dtype == np.uint32
    assert words.tolist() == [5, 1, 7, 0xC3, 0xA9]


@pytest.mark.parametrize(
    "seed, parts",
    [
        (0, ()),
        (42, ("records", 3, "P001")),
        (2**32, (2**32, 2**32 - 1, 2**40 + 7, "génération")),
        (2**64 - 1, (-1, True, "人")),
    ],
)
def test_seed_entropy_array_gives_the_state_of_its_word_list(seed, parts):
    words = seed_entropy(seed, *parts)
    state = np.random.SeedSequence(words).generate_state(4)
    assert np.array_equal(state, np.random.SeedSequence(words.tolist()).generate_state(4))
