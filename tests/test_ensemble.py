"""Tests for model pools, weekly refresh, and multi-model voting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vote_oracle
from cohortsense import ensemble
from cohortsense.cluster import ClusterSnapshot
from cohortsense.core import EngineConfig, LearnerConfig, ValidationError
from cohortsense.ensemble import (
    ModelPool,
    ModelSet,
    evaluate_week,
    pool_from_json,
    pool_to_json,
    refresh_generic,
    refresh_specialized,
    vote,
)
from cohortsense.learners import Dataset, compute_metrics, trees
from cohortsense.learners.base import KIND_ORDER, ModelKind

FAST = LearnerConfig(forest_trees=12, forest_depth=4, gbt_rounds=15)


def config(**kwargs):
    return EngineConfig(cv_folds=kwargs.pop("cv_folds", 3), learners=FAST, **kwargs)


def make_rows(vectors, labels, week=1, prefix="P"):
    """Labeled rows keyed by point id, as the engine passes them."""
    return Dataset(
        vectors=np.asarray(vectors, dtype=float),
        labels=np.asarray(labels, dtype=int),
        participant_ids=tuple(f"{prefix}{i:03d}|w{week:02d}" for i in range(len(labels))),
    )


def join(a, b):
    return Dataset(
        np.vstack([a.vectors, b.vectors]),
        np.concatenate([a.labels, b.labels]),
        a.participant_ids + b.participant_ids,
    )


def two_class_rows(n_per_class=20, gap=3.0, seed=0, week=1):
    rng = np.random.default_rng(seed)
    neg = rng.normal((-gap / 2, 0.0), 0.4, size=(n_per_class, 2))
    pos = rng.normal((gap / 2, 0.0), 0.4, size=(n_per_class, 2))
    return make_rows(np.vstack([neg, pos]), [0] * n_per_class + [1] * n_per_class, week)


class _StubModel:
    """Constant-vote stand-in for voting-logic tests."""

    def __init__(self, prediction):
        self.prediction = prediction

    def predict(self, X):
        return np.full(len(X), self.prediction, dtype=int)


def stub_set(votes, f1s, dim=2):
    return ModelSet(
        models={k: _StubModel(v) for k, v in zip(KIND_ORDER, votes)},
        validation_f1={k: f for k, f in zip(KIND_ORDER, f1s)},
        input_dim=dim,
    )


# ---------------------------------------------------------------- refresh


def test_refresh_generic_builds_four_models():
    pool, events = refresh_generic(
        ModelPool(), two_class_rows(), config(), seed=0, week=1
    )
    assert pool.generic is not None
    assert set(pool.generic.models) == set(KIND_ORDER)
    assert all(0.0 <= f <= 1.0 for f in pool.generic.validation_f1.values())


def test_refresh_generic_single_class_unchanged():
    rows = make_rows(np.random.default_rng(0).normal(size=(10, 2)), [1] * 10)
    pool = ModelPool()
    out, events = refresh_generic(pool, rows, config(), seed=0, week=1)
    assert out.generic is None
    assert any("single-class" in e for e in events)


def test_refresh_generic_deterministic():
    rows = two_class_rows(seed=3)
    p1, _ = refresh_generic(ModelPool(), rows, config(), seed=5, week=1)
    p2, _ = refresh_generic(ModelPool(), rows, config(), seed=5, week=1)
    assert p1.generic.validation_f1 == p2.generic.validation_f1
    assert ensemble._set_to_json(p1.generic) == ensemble._set_to_json(p2.generic)


def test_a_set_fit_bins_each_dataset_of_a_tree_trainer_call_once(monkeypatch):
    """k + 1 `_bin_columns` calls per tree kind, one per dataset of its
    trainer call (k fold sets and the deployed set)."""
    binned = []  # the rows of each `_bin_columns` call
    bin_columns = trees._bin_columns
    monkeypatch.setattr(trees, "_bin_columns", lambda X: binned.append(X) or bin_columns(X))
    calls = []  # (datasets, the rows each binned) per tree trainer call

    def counted(train):
        def wrapper(datasets, seeds, **kwargs):
            first = len(binned)
            models = train(datasets, seeds, **kwargs)
            calls.append((datasets, binned[first:]))
            return models

        return wrapper

    for name in ("train_random_forest", "train_gbt"):
        monkeypatch.setattr(ensemble, name, counted(getattr(ensemble, name)))
    cfg = config(cv_folds=4)
    rows = make_rows(two_class_rows(n_per_class=30, seed=2).vectors[10:], [0] * 20 + [1] * 30)
    ensemble._fit_set("generic", rows, cfg, seed=0)

    def sorted_rows(X):
        return X[np.lexsort(X.T[::-1])].tobytes()

    assert len(calls) == 2 and len(binned) == 2 * (cfg.cv_folds + 1)
    for datasets, Xs in calls:
        assert len(datasets) == cfg.cv_folds + 1
        assert sorted(map(sorted_rows, Xs)) == sorted(sorted_rows(ds.vectors) for ds in datasets)


def test_refresh_generic_f1_nondecreasing_on_growing_separable_data():
    cfg = config()
    pool = ModelPool()
    prev_f1 = None
    rows = make_rows(np.empty((0, 2)), [])
    for week in range(1, 4):
        rows = join(rows, two_class_rows(n_per_class=25, gap=4.0, seed=week, week=week))
        pool, _ = refresh_generic(pool, rows, cfg, seed=0, week=week)
        f1 = pool.generic.validation_f1[ModelKind.LOGREG]
        if prev_f1 is not None:
            assert f1 >= prev_f1 - 0.02
        prev_f1 = f1


def test_refresh_specialized_gates_small_cohorts():
    rows = two_class_rows(n_per_class=10)
    members = frozenset(rows.participant_ids[:10])
    snapshot = ClusterSnapshot(cohorts={"G1": members}, noise=frozenset())
    pool, events = refresh_specialized(
        ModelPool(), snapshot, rows, config(min_cohort_size=15), seed=0, week=1
    )
    assert pool.specialized == {}
    assert any("below min_cohort_size" in e for e in events)


def test_refresh_specialized_gates_single_class_cohorts():
    rows = two_class_rows(n_per_class=20)
    all_negative = frozenset(p for p, lab in zip(rows.participant_ids, rows.labels) if lab == 0)
    snapshot = ClusterSnapshot(cohorts={"G1": all_negative}, noise=frozenset())
    pool, events = refresh_specialized(
        ModelPool(), snapshot, rows, config(), seed=0, week=1
    )
    assert pool.specialized == {}
    assert any("min_class_count" in e for e in events)


def test_refresh_specialized_trains_only_on_cohort_rows():
    rows = two_class_rows(n_per_class=20, seed=9)
    members = frozenset(p for p in rows.participant_ids if int(p[1:4]) % 2 == 0)
    snapshot = ClusterSnapshot(cohorts={"G1": members}, noise=frozenset())
    cfg = config(min_cohort_size=5, min_class_count=3)
    pool, _ = refresh_specialized(ModelPool(), snapshot, rows, cfg, seed=0, week=1)
    assert "G1" in pool.specialized
    cohort_rows = rows.subset(np.flatnonzero([p in members for p in rows.participant_ids]))
    alone, _ = refresh_specialized(ModelPool(), snapshot, cohort_rows, cfg, seed=0, week=1)
    assert pool_to_json(alone)["specialized"]["G1"] == pool_to_json(pool)["specialized"]["G1"]


def test_refresh_specialized_keeps_vanished_sets_frozen():
    rows = two_class_rows(n_per_class=20, seed=4)
    members = frozenset(rows.participant_ids)
    snap1 = ClusterSnapshot(cohorts={"G2": members}, noise=frozenset())
    cfg = config(min_cohort_size=5, min_class_count=3)
    pool, _ = refresh_specialized(ModelPool(), snap1, rows, cfg, seed=0, week=1)
    # G2 vanishes in week 2: its set must stay exactly as trained
    snap2 = ClusterSnapshot(cohorts={}, noise=members)
    pool2, _ = refresh_specialized(pool, snap2, rows, cfg, seed=0, week=2)
    assert pool2.specialized["G2"] is pool.specialized["G2"]
    assert pool_to_json(pool2)["specialized"]["G2"] == pool_to_json(pool)["specialized"]["G2"]


def test_specialized_beats_generic_on_planted_group_structure():
    """Two planted groups with opposite label directions: pooling hurts."""
    rng = np.random.default_rng(11)
    vectors, labels = [], []
    for center, direction in (((0.0, 0.0), +1.0), ((6.0, 6.0), -1.0)):
        for _ in range(30):
            label = int(rng.random() < 0.5)
            offset = direction * (1.0 if label else -1.0)
            vectors.append(rng.normal(center, 0.3, 2) + np.array([offset, 0.0]))
            labels.append(label)
    rows = make_rows(vectors, labels)
    cfg = config(min_cohort_size=10)
    g1 = frozenset(rows.participant_ids[:30])
    snapshot = ClusterSnapshot(
        cohorts={"G1": g1, "G2": frozenset(rows.participant_ids[30:])}, noise=frozenset()
    )
    pool, _ = refresh_generic(ModelPool(), rows, cfg, seed=0, week=1)
    pool, _ = refresh_specialized(pool, snapshot, rows, cfg, seed=0, week=1)
    g1_f1 = pool.specialized["G1"].validation_f1[ModelKind.LOGREG]
    generic_f1 = pool.generic.validation_f1[ModelKind.LOGREG]
    assert g1_f1 >= generic_f1 - 0.02


# ---------------------------------------------------------------- voting


def one_vote(pool, assignment):
    """One row's vote: its prediction, its rule and the votes cast."""
    ballots = vote(pool, np.zeros((1, 2)), [assignment])
    [row] = ballots.votes
    return ballots.predictions[0], ballots.rules[0], row[row >= 0].tolist()


def test_vote_majority_with_eight_voters():
    pool = ModelPool(
        generic=stub_set([1, 1, 1, 0], [0.5] * 4),
        specialized={"G1": stub_set([1, 1, 0, 0], [0.5] * 4)},
    )
    prediction, rule, cast = one_vote(pool, "G1")
    assert prediction == 1
    assert rule == "majority"
    assert len(cast) == 8
    assert sum(cast) == 5


def test_vote_noise_routes_generic_only():
    pool = ModelPool(
        generic=stub_set([0, 0, 1, 0], [0.5] * 4),
        specialized={"G1": stub_set([1, 1, 1, 1], [0.9] * 4)},
    )
    prediction, rule, cast = one_vote(pool, None)
    assert len(cast) == 4
    assert rule == "generic_only"
    assert prediction == 0


def test_vote_missing_specialized_set_routes_generic_only():
    pool = ModelPool(generic=stub_set([1, 1, 0, 0], [0.6, 0.6, 0.5, 0.4]))
    prediction, rule, cast = one_vote(pool, "G9")
    assert len(cast) == 4
    assert rule == "generic_only"
    # internal 2-2 tie: weights 1.2 for ones vs 0.9 for zeros
    assert prediction == 1


def test_vote_weighted_tie_break_hand_computed():
    # 4-4 tie; zeros carry weight 2.9, ones carry 2.5 -> prediction 0
    pool = ModelPool(
        generic=stub_set([0, 0, 1, 1], [0.8, 0.7, 0.6, 0.7]),
        specialized={"G2": stub_set([0, 0, 1, 1], [0.7, 0.7, 0.6, 0.6])},
    )
    prediction, rule, _ = one_vote(pool, "G2")
    assert rule == "weighted_f1"
    weight_zero = 0.8 + 0.7 + 0.7 + 0.7
    weight_one = 0.6 + 0.7 + 0.6 + 0.6
    assert weight_zero == pytest.approx(2.9)
    assert weight_one == pytest.approx(2.5)
    assert prediction == 0


def test_vote_tie_with_equal_weights_predicts_lonely():
    pool = ModelPool(
        generic=stub_set([0, 0, 1, 1], [0.5] * 4),
        specialized={"G1": stub_set([0, 0, 1, 1], [0.5] * 4)},
    )
    assert one_vote(pool, "G1")[0] == 1


def test_vote_dimension_mismatch_error():
    pool = ModelPool(generic=stub_set([1, 1, 1, 1], [0.5] * 4, dim=3))
    with pytest.raises(ValidationError):
        vote(pool, np.zeros((1, 2)), [None])


def test_vote_tally_size_invariant():
    pool = ModelPool(
        generic=stub_set([1, 0, 1, 0], [0.5] * 4),
        specialized={"G1": stub_set([1, 1, 1, 1], [0.9] * 4)},
    )
    for assignment in (None, "G1", "G7"):
        _, rule, cast = one_vote(pool, assignment)
        assert len(cast) in (4, 8)
        assert (rule == "generic_only") == (len(cast) == 4)


def test_weighted_rule_never_overrides_strict_majority():
    # 5 ones vs 3 zeros; zeros hold huge weights but majority stands
    pool = ModelPool(
        generic=stub_set([1, 1, 1, 0], [0.1, 0.1, 0.1, 0.99]),
        specialized={"G1": stub_set([1, 1, 0, 0], [0.1, 0.1, 0.99, 0.99])},
    )
    prediction, rule, _ = one_vote(pool, "G1")
    assert prediction == 1
    assert rule == "majority"


class _ColumnModel:
    """Votes each row's bit in one column of ``X``."""

    def __init__(self, column):
        self.column = column

    def predict(self, X):
        return X[:, self.column].astype(int)


# F1s whose sums round apart by the order they add up in
WEIGHTS = (0.0, 0.1, 0.2, 0.3, 0.55, 0.58, 0.6, 0.64, 0.69, 0.7, 0.72, 0.77, 0.81, 1.0)


@st.composite
def vote_weeks(draw):
    """A generic set and 1-3 cohort sets whose models each read their own
    column of bits, and a week of rows: each row in noise, in a cohort with
    a set or in G9, which has none. The first three rows cast a majority,
    an equal-count (weighted) and a generic-only vote."""
    labels = [f"G{i}" for i in range(1, draw(st.integers(1, 3)) + 1)]
    # a palette of one to three F1s, so that the two sides' sums often tie exactly
    palette = draw(st.lists(st.sampled_from(WEIGHTS), min_size=1, max_size=3))
    sets = [
        ModelSet(
            models={k: _ColumnModel(4 * s + j) for j, k in enumerate(KIND_ORDER)},
            validation_f1={k: draw(st.sampled_from(palette)) for k in KIND_ORDER},
            input_dim=4 * (len(labels) + 1),
        )
        for s in range(len(labels) + 1)
    ]
    pool = ModelPool(generic=sets[0], specialized=dict(zip(labels, sets[1:])))
    n = draw(st.integers(3, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, 2, size=(n, sets[0].input_dim)).astype(float)
    cohort = draw(st.sampled_from(labels))
    first = 4 * labels.index(cohort) + 4  # the column of its set's first kind
    X[0] = 1.0
    X[1] = 0.0
    X[1, [0, 1, first, first + 1]] = 1.0
    assignments = [cohort, cohort, None] + [
        draw(st.sampled_from([None, "G9", *labels])) for _ in range(n - 3)
    ]
    return pool, X, assignments


@settings(max_examples=200, deadline=None)
@given(vote_weeks())
def test_vote_equals_the_row_by_row_oracle(week):
    pool, X, assignments = week
    ballots = vote(pool, X, assignments)
    expected = vote_oracle.vote_rows(pool, X, assignments)
    assert ballots.predictions.tolist() == [prediction for prediction, _, _ in expected]
    assert ballots.rules.tolist() == [rule for _, rule, _ in expected]
    assert [row[row >= 0].tolist() for row in ballots.votes] == [
        list(tally.values()) for _, _, tally in expected
    ]
    assert ballots.rules[:3].tolist() == ["majority", "weighted_f1", "generic_only"]


def one_cohort_pool():
    """A trained pool with one specialized set, G1, plus its rows and a
    mix of assignments: G1, noise, and a label with no set."""
    rows = two_class_rows(n_per_class=20, seed=6)
    cfg = config(min_cohort_size=10, min_class_count=3)
    members = frozenset(rows.participant_ids[::2])
    snapshot = ClusterSnapshot(cohorts={"G1": members}, noise=frozenset())
    pool, _ = refresh_generic(ModelPool(), rows, cfg, seed=0, week=1)
    pool, _ = refresh_specialized(pool, snapshot, rows, cfg, seed=0, week=1)
    assert list(pool.specialized) == ["G1"]
    assignments = [("G1", None, "G7")[i % 3] for i in range(len(rows))]
    return pool, rows, assignments


def test_vote_batch_equals_one_row_at_a_time_in_any_order():
    pool, rows, assignments = one_cohort_pool()
    X = rows.vectors
    alone = [vote(pool, X[i : i + 1], [a]) for i, a in enumerate(assignments)]
    assert {int((b.votes >= 0).sum()) for b in alone} == {4, 8}
    batch = vote(pool, X, assignments)
    assert [batch.take([i]) for i in range(len(rows))] == alone
    order = np.random.default_rng(2).permutation(len(rows))
    shuffled = vote(pool, X[order], [assignments[i] for i in order])
    assert [shuffled.take([k]) for k in range(len(rows))] == [alone[i] for i in order]


# ---------------------------------------------------------------- evaluation


def voted_holdout(pool, rows, assignments):
    """The hold-out arguments of evaluate_week: labels, assignments, ballots."""
    ballots = vote(pool, rows.vectors, assignments)
    return rows.labels.tolist(), assignments, ballots


def test_evaluate_week_report_axes():
    rows = two_class_rows(n_per_class=20, seed=6)
    cfg = config(min_cohort_size=10, min_class_count=3)
    members = frozenset(rows.participant_ids)
    snapshot = ClusterSnapshot(cohorts={"G1": members}, noise=frozenset())
    pool, _ = refresh_generic(ModelPool(), rows, cfg, seed=0, week=1)
    pool, _ = refresh_specialized(pool, snapshot, rows, cfg, seed=0, week=1)
    report = evaluate_week(*voted_holdout(pool, rows, ["G1"] * len(rows)))
    axes = {(r.scope, r.cohort, r.kind) for r in report}
    assert ("generic", "", "gbt") in axes
    assert ("specialized", "G1", "gbt") in axes
    assert ("voting", "", "ensemble") in axes
    assert len([r for r in report if r.scope == "generic"]) == 4


def test_evaluate_week_perfect_pool_alls_ones():
    rows = two_class_rows(n_per_class=6, seed=7)
    pool = ModelPool(generic=stub_set([1, 1, 1, 1], [0.5] * 4))
    # stub predicts all ones; feed rows where truth is all ones
    ones_rows = rows.subset(np.flatnonzero(rows.labels == 1))
    report = evaluate_week(*voted_holdout(pool, ones_rows, [None] * len(ones_rows)))
    for row in report:
        assert row.metrics.accuracy == 1.0
        assert row.metrics.f1 == 1.0


def test_evaluate_week_rows_equal_each_models_own_predictions():
    pool, rows, assignments = one_cohort_pool()
    labels, _, ballots = voted_holdout(pool, rows, assignments)
    report = evaluate_week(labels, assignments, ballots)
    X = rows.vectors
    y = np.array(labels)
    idx = [i for i, a in enumerate(assignments) if a == "G1"]
    expected = [
        ("generic", "", k.value, compute_metrics(pool.generic.models[k].predict(X), y))
        for k in KIND_ORDER
    ] + [
        (
            "specialized",
            "G1",
            k.value,
            compute_metrics(pool.specialized["G1"].models[k].predict(X[idx]), y[idx]),
        )
        for k in KIND_ORDER
    ]
    assert [(r.scope, r.cohort, r.kind, r.metrics) for r in report[:-1]] == expected
    assert (report[-1].scope, report[-1].kind) == ("voting", "ensemble")


def test_evaluate_week_empty_holdout_error():
    pool = ModelPool(generic=stub_set([1, 1, 1, 1], [0.5] * 4))
    with pytest.raises(ValidationError):
        evaluate_week([], [], vote(pool, np.zeros((0, 2)), []))


# ---------------------------------------------------------------- persistence


def test_pool_json_round_trip():
    rows = two_class_rows(n_per_class=15, seed=8)
    cfg = config(min_cohort_size=10, min_class_count=3)
    members = frozenset(rows.participant_ids)
    snapshot = ClusterSnapshot(cohorts={"G1": members}, noise=frozenset())
    pool, _ = refresh_generic(ModelPool(), rows, cfg, seed=0, week=1)
    pool, _ = refresh_specialized(pool, snapshot, rows, cfg, seed=0, week=1)
    doc = pool_to_json(pool)
    # every step refits the generic set before it votes: it is not written
    assert pool.generic is not None and doc.keys() == {"specialized"}
    restored = pool_from_json(doc)
    assert restored.generic is None and list(restored.specialized) == ["G1"]
    assert pool_to_json(restored) == doc
    probe = np.random.default_rng(1).normal(size=(10, 2))
    for kind in KIND_ORDER:
        assert np.array_equal(
            restored.specialized["G1"].models[kind].predict(probe),
            pool.specialized["G1"].models[kind].predict(probe),
        )
