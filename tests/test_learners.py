"""Tests for the from-scratch learners, SMOTE, CV, and metrics."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cohortsense.core import ValidationError
from cohortsense.learners import (
    MODEL_TYPES,
    Dataset,
    ModelKind,
    compute_metrics,
    kfold_cv,
    logreg_gradient,
    logreg_loss,
    smote,
    stratified_folds,
    train_gbt,
    train_linear_svm,
    train_logreg,
    train_random_forest,
)
from cohortsense.learners.trees import MAX_BINS, _bin_columns

from smote_oracles import loop_draws, loop_smote, minority_neighbors


def make_dataset(vectors, labels, pids=None):
    vectors = np.asarray(vectors, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if pids is None:
        pids = tuple(f"p{i:03d}" for i in range(len(labels)))
    return Dataset(vectors=vectors, labels=labels, participant_ids=tuple(pids))


def minority_table(dataset, k, search):
    """SMOTE's neighbour table for ``dataset`` with at most ``k`` columns:
    ``search`` on its canonical minority rows, as ``smote`` runs
    ``_tree_neighbors``."""
    zeros, ones = dataset.class_counts()
    order = dataset.canonical_order()
    minority = order[dataset.labels[order] == int(ones < zeros)]
    return search(dataset.vectors[minority], min(k, len(minority) - 1))


def separable_fixture(n_per_class=10, gap=4.0, seed=3):
    """Two comfortably separated Gaussian blobs in 2-D."""
    rng = np.random.default_rng(seed)
    neg = rng.normal(loc=(-gap / 2, 0.0), scale=0.4, size=(n_per_class, 2))
    pos = rng.normal(loc=(gap / 2, 0.0), scale=0.4, size=(n_per_class, 2))
    vectors = np.vstack([neg, pos])
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    return make_dataset(vectors, labels)


# ---------------------------------------------------------------- metrics


def test_metrics_perfect_predictions():
    m = compute_metrics([1, 0, 1, 0], [1, 0, 1, 0])
    assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)


def test_metrics_hand_computed_confusion():
    # TP=2, FP=1, FN=1, TN=6
    preds = [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
    labs = [1, 1, 0, 1, 0, 0, 0, 0, 0, 0]
    m = compute_metrics(preds, labs)
    assert (m.tp, m.fp, m.fn, m.tn) == (2, 1, 1, 6)
    assert m.accuracy == pytest.approx(0.8)
    assert m.precision == pytest.approx(2 / 3)
    assert m.recall == pytest.approx(2 / 3)
    assert m.f1 == pytest.approx(2 / 3)


def test_metrics_degenerate_all_negative():
    m = compute_metrics([0, 0, 0], [0, 0, 0])
    assert m.precision == 1.0 and m.recall == 1.0 and m.accuracy == 1.0


def test_metrics_no_positive_predictions_with_positives_present():
    m = compute_metrics([0, 0], [1, 0])
    assert m.precision == 0.0
    assert m.recall == 0.0
    assert m.f1 == 0.0


def test_metrics_rejects_mismatch_and_empty():
    with pytest.raises(ValidationError):
        compute_metrics([1, 0], [1])
    with pytest.raises(ValidationError):
        compute_metrics([], [])


def test_metrics_random_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 60))
        preds = rng.integers(0, 2, n)
        labs = rng.integers(0, 2, n)
        m = compute_metrics(preds, labs)
        tp = int(np.sum((preds == 1) & (labs == 1)))
        fp = int(np.sum((preds == 1) & (labs == 0)))
        fn = int(np.sum((preds == 0) & (labs == 1)))
        tn = int(np.sum((preds == 0) & (labs == 0)))
        assert (m.tp, m.fp, m.fn, m.tn) == (tp, fp, fn, tn)
        assert abs(m.accuracy - (tp + tn) / n) < 1e-12
        if tp + fp > 0:
            assert abs(m.precision - tp / (tp + fp)) < 1e-12
        if tp + fn > 0:
            assert abs(m.recall - tp / (tp + fn)) < 1e-12
        if m.precision + m.recall > 0:
            expected = 2 * m.precision * m.recall / (m.precision + m.recall)
            assert abs(m.f1 - expected) < 1e-12


# ---------------------------------------------------------------- SMOTE


def test_smote_balanced_input_unchanged():
    ds = separable_fixture()
    out = smote(ds, 5, seed=0)
    assert out is ds


def test_smote_two_point_minority_interpolates_segment():
    vectors = [[0.0, 0.0], [1.0, 1.0], [5.0, 5.0], [6.0, 5.0], [5.5, 6.0], [6.5, 6.5]]
    labels = [1, 1, 0, 0, 0, 0]
    ds = make_dataset(vectors, labels)
    out = smote(ds, 5, seed=7)
    assert out.class_counts() == (4, 4)
    synth = out.vectors[6:]
    for row in synth:
        # on the segment between (0,0) and (1,1): coordinates equal, in [0,1)
        assert row[0] == pytest.approx(row[1])
        assert 0.0 <= row[0] < 1.0


def test_smote_count_arithmetic():
    rng = np.random.default_rng(5)
    vectors = rng.normal(size=(120, 3))
    labels = np.array([1] * 30 + [0] * 90)
    ds = make_dataset(vectors, labels)
    out = smote(ds, 5, seed=1)
    assert out.class_counts() == (90, 90)
    # originals unchanged, order preserved
    assert np.array_equal(out.vectors[:120], vectors)
    assert np.array_equal(out.labels[:120], labels)
    # each synthetic row is the per-row formula x + u * (x_nn - x), with the
    # neighbour pick and u drawn alternately from one stream
    points = vectors[:30]  # the minority rows, already in canonical order
    neighbors = minority_neighbors(points, 5)
    rng = np.random.default_rng(1)
    for i, row in enumerate(out.vectors[120:]):
        src = i % 30
        nn = neighbors[src][rng.integers(0, 5)]
        u = rng.random()
        assert np.array_equal(row, points[src] + u * (points[nn] - points[src]))


@st.composite
def table_cases(draw):
    """(dataset, smote neighbours, folds): d = 1-3, a third of the inputs
    rounded to 0.1 so that distances tie, either minority label or none,
    folds as ``_fit_set`` picks them."""
    sizes = [draw(st.integers(2, 30)), draw(st.integers(2, 30))]
    if draw(st.integers(0, 3)) == 0:
        sizes[1] = sizes[0]
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = rng.normal(size=(sum(sizes), d))
    if draw(st.integers(0, 2)) == 0:
        vectors = np.round(vectors, 1)
    labels = np.repeat([0, 1], sizes)
    pids = [f"r{i:02d}" for i in rng.permutation(sum(sizes))]
    folds = min(draw(st.integers(2, 10)), *sizes)
    return make_dataset(vectors, labels, pids), draw(st.integers(1, 10)), folds


def table_case(n0, n1, k_neighbors, folds, seed=0):
    rng = np.random.default_rng(seed)
    vectors = np.round(rng.normal(size=(n0 + n1, 2)), 1)
    return make_dataset(vectors, np.repeat([0, 1], [n0, n1])), k_neighbors, folds


@settings(max_examples=200, deadline=None)
@given(table_cases())
@example(table_case(9, 2, 5, 2))  # n_min = 2, minority label 1
@example(table_case(2, 7, 1, 2))  # n_min = 2, minority label 0
@example(table_case(6, 6, 10, 6))  # balanced, k >= n_min - 1
@example(table_case(30, 12, 10, 10))  # k >= n_min - 1 in every fold
def test_narrowed_tables_equal_the_training_minority_table(case):
    """For the full set and every fold's training set, the table ``smote``
    builds equals the brute-force oracle's, ties broken by index."""
    from cohortsense.learners.sampling import _tree_neighbors

    ds, k, folds = case
    for seed in range(3):
        for test_idx in [np.empty(0, dtype=int)] + stratified_folds(ds, folds, seed):
            train = ds.subset(np.setdiff1d(np.arange(len(ds)), test_idx))
            if min(train.class_counts()) < 2:
                continue
            built = minority_table(train, k, _tree_neighbors)
            assert np.array_equal(built, minority_table(train, k, minority_neighbors))


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 39), st.integers(2, 39), st.integers(2, 10), st.integers(0, 2**32 - 1))
def test_a_test_fold_holds_at_most_its_share_of_the_minority(n0, n1, folds, seed):
    """For unequal classes, a stratified test fold holds at most
    ceil(n_min / folds) minority rows, and no training fold has more
    minority rows than majority rows."""
    if n0 == n1:
        n1 += 1
    folds = min(folds, n0, n1)
    minority = int(n1 < n0)
    n_min = min(n0, n1)
    ds = make_dataset(np.zeros((n0 + n1, 1)), np.repeat([0, 1], [n0, n1]))
    for test_idx in stratified_folds(ds, folds, seed):
        held = np.bincount(ds.labels[test_idx], minlength=2)
        assert held[minority] <= -(-n_min // folds)
        assert n_min - held[minority] <= max(n0, n1) - held[1 - minority]


def argsort_neighbors(points, k, block_rows):
    """The earlier selection, kept as the reference: a full stable argsort
    of each block of distance rows."""
    n = points.shape[0]
    order = np.empty((n, k), dtype=np.int64)
    for start in range(0, n, block_rows):
        block = points[start : start + block_rows]
        dist = np.sqrt(((block[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
        rows = np.arange(len(block))
        dist[rows, start + rows] = np.inf
        order[start + rows] = np.argsort(dist, axis=1, kind="stable")[:, :k]
    return order


@pytest.mark.parametrize("block_rows", [1, 7, 256])
def test_minority_neighbors_blocked_equals_dense(monkeypatch, block_rows):
    """The brute oracle and the k-d search, each at every block size, give
    the argsort reference on lattice points, duplicates and all."""
    from cohortsense.learners import sampling

    monkeypatch.setattr(sampling, "BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(block_rows)
    inputs = [np.full((9, 2), 0.5)]  # every row a duplicate of every other
    for n, dim in [(2, 1), (23, 2), (60, 3)]:
        # a coarse lattice, so that duplicates and distance ties are common
        points = rng.integers(0, 4, size=(n, dim)).astype(float)
        points[n // 2] = points[0]
        inputs.append(points)
    for points in inputs:
        n = len(points)
        for k in range(1, n):
            expected = argsort_neighbors(points, k, block_rows)
            for search in (minority_neighbors, sampling._tree_neighbors):
                assert np.array_equal(search(points, k), expected), (search.__name__, n, k)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 40),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_searching_the_first_rows_gives_the_oracle_table_s_first_rows(n, d, seed, data):
    """``_tree_neighbors(points, k, m)`` is the oracle's table cut to its
    first m rows, the tree still holding every row; some inputs repeat
    rows, others lie on a coarse lattice, so distances tie."""
    from cohortsense.learners.sampling import _tree_neighbors

    rng = np.random.default_rng(seed)
    kind = data.draw(st.sampled_from(["normal", "lattice", "repeats"]))
    if kind == "normal":
        points = rng.normal(size=(n, d))
    elif kind == "lattice":
        points = rng.integers(0, 3, size=(n, d)).astype(float)
    else:
        # each row a copy of one of a few distinct rows
        distinct = rng.normal(size=(data.draw(st.integers(1, n)), d))
        points = distinct[rng.integers(0, len(distinct), size=n)]
    k = data.draw(st.integers(1, n - 1))
    m = data.draw(st.integers(1, n))
    table = _tree_neighbors(points, k, m)
    assert table.shape == (m, k)
    assert np.array_equal(table, minority_neighbors(points, k)[:m])


def test_a_table_of_identical_rows_needs_no_quadratic_memory():
    """3,000 identical rows are each other's neighbours at distance 0; the
    search holds BLOCK_ROWS rows of candidates at a time, not all n x n."""
    import tracemalloc

    from cohortsense.learners.sampling import _tree_neighbors

    points = np.zeros((3000, 2))
    tracemalloc.start()
    try:
        table = _tree_neighbors(points, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # ties go to the lower index: rows 0-5 less the row itself, first five
    assert np.array_equal(table, [[j for j in range(6) if j != i][:5] for i in range(3000)])
    assert peak < 150e6, peak


def key_order(dataset):
    """The earlier canonical order: sorted by (row id, label, vector bytes)."""
    keys = [
        (dataset.participant_ids[i], int(dataset.labels[i]), dataset.vectors[i].tobytes())
        for i in range(len(dataset))
    ]
    return np.array(sorted(range(len(dataset)), key=lambda i: keys[i]), dtype=int)


def test_canonical_order_sorts_row_ids_and_rejects_repeats():
    rng = np.random.default_rng(31)
    for trial in range(5):
        n = int(rng.integers(20, 80))
        labels = (rng.random(n) < 0.25).astype(int)
        labels[:2] = 1
        pids = [f"P{i:03d}_w{int(rng.integers(1, 11)):02d}" for i in rng.permutation(n)]
        ds = make_dataset(rng.normal(size=(n, 2)), labels, pids)
        ds = smote(ds, 5, seed=trial)
        ds = ds.subset(rng.permutation(len(ds)))  # originals and synthetics interleaved
        assert np.array_equal(ds.canonical_order(), key_order(ds))
    twice = make_dataset(np.zeros((3, 2)), [0, 1, 1], ("b", "a", "b"))
    with pytest.raises(ValidationError, match="'b' is not unique"):
        twice.canonical_order()


def test_smote_minority_too_small():
    ds = make_dataset([[0.0], [1.0], [2.0]], [1, 0, 0])
    with pytest.raises(ValidationError):
        smote(ds, 5, seed=0)


def test_smote_rejects_a_table_of_another_shape():
    """A table needs at least one neighbour column: k_neighbors < 1 is an
    input error, not a failure inside the search."""
    ds = make_dataset([[0.0], [1.0], [2.0], [3.0], [4.0]], [1, 1, 0, 0, 0])
    for k in (0, -1):
        with pytest.raises(ValidationError, match="k_neighbors >= 1"):
            smote(ds, k, seed=0)


def test_smote_deterministic_and_order_independent():
    rng = np.random.default_rng(9)
    vectors = rng.normal(size=(40, 4))
    labels = np.array([1] * 12 + [0] * 28)
    ds = make_dataset(vectors, labels)
    out1 = smote(ds, 5, seed=3)
    perm = rng.permutation(40)
    shuffled = ds.subset(perm)
    out2 = smote(shuffled, 5, seed=3)
    # synthetic tails must coincide as sets of rows
    tail1 = sorted(map(tuple, np.round(out1.vectors[40:], 12)))
    tail2 = sorted(map(tuple, np.round(out2.vectors[40:], 12)))
    assert tail1 == tail2


def test_smote_convex_hull_property():
    rng = np.random.default_rng(21)
    for trial in range(10):
        n_min = int(rng.integers(3, 12))
        n_maj = n_min + int(rng.integers(5, 30))
        d = int(rng.integers(1, 6))
        vectors = np.vstack([rng.normal(size=(n_min, d)), rng.normal(size=(n_maj, d))])
        labels = np.array([1] * n_min + [0] * n_maj)
        ds = make_dataset(vectors, labels)
        out = smote(ds, 5, seed=trial)
        minority = vectors[:n_min]
        lo, hi = minority.min(axis=0), minority.max(axis=0)
        synth = out.vectors[n_min + n_maj :]
        assert np.all(synth >= lo - 1e-9) and np.all(synth <= hi + 1e-9)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(1, 401), st.integers(1, 200))
@example(0, 1, 1)  # one row, k = 1: no pick is drawn
@example(7, 2, 5)
@example(7, 3, 2)
def test_raw_stream_draws_equal_the_draw_loop(seed, n, k):
    from cohortsense.learners.sampling import _draws

    pick, u = _draws(seed, n, k)
    expected_pick, expected_u = loop_draws(seed, n, k)
    assert np.array_equal(pick, expected_pick)
    assert u.tobytes() == expected_u.tobytes()


@pytest.mark.parametrize("k", [2**31 + 1, 2**32 - 1, 2**33])
def test_draws_that_the_bounded_method_rejects_fall_back_to_the_loop(k):
    # at k = 2**31 + 1 about half of all 32-bit draws are rejected; a k past
    # 32 bits takes numpy's 64-bit path, which the words do not follow
    from cohortsense.learners.sampling import _draws

    seed, n = 11, 6
    if k < 2**32:
        words = np.random.default_rng(seed).bit_generator.random_raw(9)[::3]
        halves = np.column_stack([words & 0xFFFFFFFF, words >> 32]).ravel()
        assert ((halves * np.uint64(k)) & 0xFFFFFFFF < (2**32 - k) % k).any() == (k == 2**31 + 1)
    pick, u = _draws(seed, n, k)
    expected_pick, expected_u = loop_draws(seed, n, k)
    assert np.array_equal(pick, expected_pick)
    assert u.tobytes() == expected_u.tobytes()


@st.composite
def smote_cases(draw):
    """(dataset, k_neighbors, seed): one or both minority sizes small, k
    from 1 up to past n_min - 1, so that n_needed is 1, odd or even."""
    n_min = draw(st.integers(2, 25))
    n_maj = n_min + draw(st.integers(1, 40))
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = rng.normal(size=(n_min + n_maj, d))
    if draw(st.booleans()):
        vectors = np.round(vectors, 1)  # distances tie
    minority = draw(st.integers(0, 1))
    labels = np.r_[np.full(n_min, minority), np.full(n_maj, 1 - minority)]
    pids = [f"r{i:03d}" for i in rng.permutation(n_min + n_maj)]
    k = draw(st.integers(1, n_min + 1))
    return make_dataset(vectors, labels, pids), k, draw(st.integers(0, 2**64 - 1))


@settings(max_examples=300, deadline=None)
@given(smote_cases())
def test_smote_equals_the_loop_smote_with_and_without_a_shared_search(case):
    from cohortsense.learners.sampling import minority_search

    ds, k, seed = case
    expected = loop_smote(ds, k, seed)
    for out in (smote(ds, k, seed), smote(ds, k, seed, minority_search(ds, k))):
        assert out.vectors.tobytes() == expected.vectors.tobytes()
        assert np.array_equal(out.labels, expected.labels)
        assert out.participant_ids == expected.participant_ids


# ---------------------------------------------------------------- logistic regression


def test_logreg_separable_training_accuracy():
    ds = separable_fixture()
    model = train_logreg([ds], [0])[0]
    assert np.array_equal(model.predict(ds.vectors), ds.labels)


def test_logreg_symmetric_data_zero_bias():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(15, 3))
    vectors = np.vstack([pts, -pts])
    labels = np.array([1] * 15 + [0] * 15)
    model = train_logreg([make_dataset(vectors, labels)], [0])[0]
    assert abs(model.bias) < 1e-6


def test_logreg_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    h = 1e-5
    for _ in range(20):
        n, d = int(rng.integers(5, 30)), int(rng.integers(1, 6))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, n).astype(float)
        w = rng.normal(size=d)
        b = float(rng.normal())
        grad_w, grad_b = logreg_gradient(w, b, X, y, l2=1e-3)
        for j in range(d):
            wp, wm = w.copy(), w.copy()
            wp[j] += h
            wm[j] -= h
            num = (logreg_loss(wp, b, X, y, 1e-3) - logreg_loss(wm, b, X, y, 1e-3)) / (2 * h)
            denom = max(abs(num), abs(grad_w[j]), 1e-8)
            assert abs(grad_w[j] - num) / denom < 1e-4
        num_b = (logreg_loss(w, b + h, X, y, 1e-3) - logreg_loss(w, b - h, X, y, 1e-3)) / (2 * h)
        assert abs(grad_b - num_b) / max(abs(num_b), abs(grad_b), 1e-8) < 1e-4


TRAINERS = {"logreg": train_logreg, "linear_svm": train_linear_svm}


def objective_gradient(kind, model, X, y, l2) -> np.ndarray:
    """The gradient in (weights, bias) of ``kind``'s training objective:
    logreg's from the oracle, and the SVM's mean squared hinge plus
    (l2/2)|(w, b)|^2, its bias regularized, computed here."""
    if kind == "logreg":
        return np.append(*logreg_gradient(model.weights, model.bias, X, y.astype(float), l2))
    t = 2.0 * y - 1.0
    pull = -2.0 * t * np.maximum(1.0 - t * model.decision_scores(X), 0.0) / len(y)
    return np.append(X.T @ pull + l2 * model.weights, pull.sum() + l2 * model.bias)


def assert_reaches_stationary_points(kind):
    # the trainer computes its gradient inline; the gradient of its
    # objective at the returned model vanishes, on separable problems too
    rng = np.random.default_rng(23)
    for t in range(120):
        n, d = int(rng.integers(4, 200)), int(rng.integers(1, 6))
        X = rng.normal(size=(n, d)) * rng.uniform(0.2, 5.0, size=d)
        direction = rng.normal(size=d)
        X[:2] = -direction, direction
        separable = t % 3 == 0
        noise = 0.0 if separable else rng.normal(0.0, 1.0, n)
        y = (X @ direction + noise > 0).astype(int)
        y[:2] = (0, 1)
        l2 = float(rng.choice([1e-4, 1e-3, 1e-2, 0.1]))
        model = TRAINERS[kind]([make_dataset(X, y)], [0], l2=l2)[0]
        grad = objective_gradient(kind, model, X, y, l2)
        assert np.sqrt(grad @ grad) <= 1e-8


def test_logreg_trainer_reaches_a_stationary_point():
    assert_reaches_stationary_points("logreg")


def test_svm_trainer_reaches_a_stationary_point():
    assert_reaches_stationary_points("linear_svm")


def test_logreg_loss_nonincreasing():
    ds = separable_fixture(seed=8)
    X, y = ds.vectors, ds.labels.astype(float)
    model = train_logreg([ds], [0])[0]
    # final loss must not exceed the zero-init loss
    assert logreg_loss(model.weights, model.bias, X, y, 1e-3) <= logreg_loss(
        np.zeros(ds.dim), 0.0, X, y, 1e-3
    )


# the least penalty each kind takes: logreg's may be zero, the SVM's not
NO_L2 = {"logreg": 0.0, "linear_svm": 1e-8}


def fit_separable_without_l2(kind, columns):
    # with no penalty logreg's optimum lies at infinity and its Hessian
    # vanishes (or is singular, for a constant or a repeated column); the
    # narrow margin drives its scores past +-709, where exp overflows
    X = np.random.default_rng(0).normal(size=(60, 2))
    labels = (X[:, 0] > 0).astype(int)
    extra = {"plain": [], "constant": [np.full(60, 3.0)], "duplicated": [X[:, 0]]}
    vectors = np.column_stack([X, *extra[columns]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = TRAINERS[kind]([make_dataset(vectors, labels)], [0], l2=NO_L2[kind])[0]
    assert np.isfinite(model.weights).all() and np.isfinite(model.bias)
    assert np.array_equal(model.predict(vectors), labels)
    return model, vectors


@pytest.mark.parametrize("columns", ["plain", "constant", "duplicated"])
def test_logreg_without_l2_on_separable_data_stays_finite(columns):
    model, vectors = fit_separable_without_l2("logreg", columns)
    assert np.abs(model.decision_scores(vectors)).max() > 709


@pytest.mark.parametrize("columns", ["plain", "constant", "duplicated"])
def test_svm_with_least_l2_on_separable_data_stays_finite(columns):
    fit_separable_without_l2("linear_svm", columns)


def assert_reaches_the_optimum_on_collinear_columns(kind, columns):
    # overlapping classes: the loss has a minimum, on a line of optima
    # when there is no penalty
    rng = np.random.default_rng(11)
    X = rng.normal(size=(80, 2))
    y = (X[:, 0] + rng.normal(0.0, 1.0, 80) > 0).astype(int)
    extra = np.full(80, 3.0) if columns == "constant" else X[:, 1]
    vectors = np.column_stack([X, extra])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = TRAINERS[kind]([make_dataset(vectors, y)], [0], l2=NO_L2[kind])[0]
    grad = objective_gradient(kind, model, vectors, y, NO_L2[kind])
    assert np.isfinite(model.weights).all()
    assert np.sqrt(grad @ grad) <= 1e-8


@pytest.mark.parametrize("columns", ["constant", "duplicated"])
def test_logreg_without_l2_on_collinear_columns_reaches_the_optimum(columns):
    assert_reaches_the_optimum_on_collinear_columns("logreg", columns)


@pytest.mark.parametrize("columns", ["constant", "duplicated"])
def test_svm_with_least_l2_on_collinear_columns_reaches_the_optimum(columns):
    assert_reaches_the_optimum_on_collinear_columns("linear_svm", columns)


def assert_freezes_on_its_own_steps(kind, monkeypatch):
    # a dataset that converges in few steps, trained beside one that needs
    # many more, equals itself trained alone: each freezes on its own step
    train = TRAINERS[kind]
    rng = np.random.default_rng(1)
    X = rng.normal(size=(60, 2))
    quick = make_dataset(X, (X[:, 0] + rng.normal(0.0, 1.0, 60) > 0).astype(int))
    slow = separable_fixture(n_per_class=40, seed=2)
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(len(a)) or solve(a, b))
    [alone] = train([quick], [0], l2=1e-4)
    quick_steps = len(solves)
    [slow_alone] = train([slow], [0], l2=1e-4)
    assert len(solves) - quick_steps >= quick_steps + 5
    together = train([quick, slow], [0, 1], l2=1e-4)
    assert [m.to_json() for m in together] == [m.to_json() for m in (alone, slow_alone)]


def test_logreg_dataset_freezes_on_its_own_steps(monkeypatch):
    assert_freezes_on_its_own_steps("logreg", monkeypatch)


def test_svm_dataset_freezes_on_its_own_steps(monkeypatch):
    assert_freezes_on_its_own_steps("linear_svm", monkeypatch)


def test_logreg_single_class_error():
    ds = make_dataset([[0.0], [1.0]], [1, 1])
    with pytest.raises(ValidationError):
        train_logreg([ds], [0])


# ---------------------------------------------------------------- linear SVM


def test_svm_separable_training_accuracy():
    ds = separable_fixture(seed=5)
    model = train_linear_svm([ds], [0])[0]
    assert np.array_equal(model.predict(ds.vectors), ds.labels)


def test_svm_scaling_leaves_training_signs_unchanged():
    ds = separable_fixture(seed=6)
    base = train_linear_svm([ds], [0])[0]
    scaled = Dataset(
        vectors=ds.vectors * 3.0,
        labels=ds.labels,
        participant_ids=ds.participant_ids,
    )
    rescaled = train_linear_svm([scaled], [0])[0]
    assert np.array_equal(base.predict(ds.vectors), rescaled.predict(scaled.vectors))


def test_svm_duplicated_dataset_same_predictions():
    ds = separable_fixture(seed=7)
    doubled = Dataset(
        vectors=np.vstack([ds.vectors, ds.vectors]),
        labels=np.concatenate([ds.labels, ds.labels]),
        participant_ids=ds.participant_ids + tuple(f"{p}x" for p in ds.participant_ids),
    )
    m1 = train_linear_svm([ds], [0])[0]
    m2 = train_linear_svm([doubled], [0])[0]
    probe = np.array([[0.3, -0.2], [-1.0, 0.5], [2.0, 2.0]])
    assert np.array_equal(m1.predict(probe), m2.predict(probe))


def test_svm_single_class_error():
    ds = make_dataset([[0.0], [1.0]], [0, 0])
    with pytest.raises(ValidationError):
        train_linear_svm([ds], [0])


# ---------------------------------------------------------------- random forest


def signed_json(model) -> str:
    """A model's JSON text, where 0.0 and -0.0 differ as in a checkpoint."""
    return json.dumps(model.to_json())


def reference_bins(X):
    """`_bin_columns` as it was written with ``np.unique`` and ``np.quantile``,
    which partitions: a zero edge's sign may follow the row order."""
    edges_list, binned = [], np.zeros(X.shape, dtype=np.int64)
    for f in range(X.shape[1]):
        vals = X[:, f]
        uniq = np.unique(vals)
        if len(uniq) <= 1:
            edges = np.empty(0)
        elif len(uniq) <= MAX_BINS:
            edges = (uniq[:-1] + uniq[1:]) / 2.0
        else:
            edges = np.unique(np.quantile(vals, np.linspace(0.0, 1.0, MAX_BINS + 1)[1:-1]))
        binned[:, f] = np.searchsorted(edges, vals, side="left")
        edges_list.append(edges)
    return edges_list, binned


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(2, 120), st.integers(1, 3),
    st.integers(0, 2), st.booleans(),
)
@example(seed=0, n=2, d=2, decimals=1, zeros=True)
@example(seed=1, n=2, d=1, decimals=0, zeros=False)
def test_bin_columns_equal_the_unique_and_quantile_bins_in_any_row_order(
    seed, n, d, decimals, zeros
):
    """Same values as the reference; on columns without -0.0 the same bits;
    and edges and bins, zero signs included, whatever the row order. Cases
    hold ties, constant columns, two rows, more than MAX_BINS distinct
    values and, in some sets, 0.0 and -0.0 both."""
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, d)) * rng.choice([1.0, 10.0]), decimals)
    X[:, int(rng.integers(0, d))] *= rng.random() < 0.2  # sometimes a constant column
    X += 0.0  # np.round and the product above leave -0.0 where a value was a small negative
    if zeros:
        X[rng.random((n, d)) < 0.3] = 0.0
        X[rng.random((n, d)) < 0.15] = -0.0
    edges, binned = _bin_columns(X)
    ref_edges, ref_binned = reference_bins(X)
    assert np.array_equal(binned, ref_binned)
    for e, r in zip(edges, ref_edges, strict=True):
        assert e.dtype == float and np.array_equal(e, r)
        if not np.signbit(X[X == 0]).any():
            assert e.tobytes() == r.tobytes()
    perm = rng.permutation(n)
    moved_edges, moved_binned = _bin_columns(X[perm])
    assert np.array_equal(moved_binned, binned[perm])
    assert [e.tobytes() for e in moved_edges] == [e.tobytes() for e in edges]


def test_trees_of_a_set_holding_negative_zeros_do_not_depend_on_row_order():
    """A column whose reference edges change the sign of a zero with the
    row order: the forest and GBT of either order are the same, signs of
    zero thresholds included."""
    rng = np.random.default_rng(0)
    for _ in range(3000):
        n = int(rng.integers(34, 60))
        v = np.round(rng.normal(size=n), 1)
        zero = rng.random(n) < 0.3
        v[zero] = np.where(rng.random(zero.sum()) < 0.5, -0.0, 0.0)
        perm = rng.permutation(n)
        edges = [json.dumps(reference_bins(c[:, None])[0][0].tolist()) for c in (v, v[perm])]
        if edges[0] != edges[1]:
            break
    else:
        pytest.fail("no row order flipped the sign of a reference zero edge")
    labels = (v > 0).astype(int)  # the best first split is at the zero edge
    pids = [f"r{i:02d}" for i in range(n)]
    given_order = make_dataset(v[:, None], labels, pids)
    moved = given_order.subset(perm)
    forests = train_random_forest([given_order, moved], [5, 5], n_trees=8, max_depth=4)
    gbts = train_gbt([given_order, moved], [1, 1], n_rounds=4)
    assert signed_json(forests[0]) == signed_json(forests[1])
    assert signed_json(gbts[0]) == signed_json(gbts[1])


def test_forest_single_class_constant_prediction():
    ds = make_dataset([[0.0], [1.0], [2.0], [3.0]], [1, 1, 1, 1])
    model = train_random_forest([ds], [0], n_trees=5, max_depth=3)[0]
    assert np.array_equal(model.predict(np.array([[10.0], [-5.0]])), [1, 1])


def test_forest_heldout_accuracy_on_margin_fixture():
    train = separable_fixture(n_per_class=40, seed=10)
    test = separable_fixture(n_per_class=25, seed=99)
    model = train_random_forest([train], [0], n_trees=50, max_depth=6)[0]
    acc = (model.predict(test.vectors) == test.labels).mean()
    assert acc >= 0.9


def test_forest_same_seed_identical():
    ds = separable_fixture(n_per_class=15, seed=12)
    m1 = train_random_forest([ds], [4], n_trees=10, max_depth=4)[0]
    m2 = train_random_forest([ds], [4], n_trees=10, max_depth=4)[0]
    assert m1.to_json() == m2.to_json()


def test_forest_row_order_invariance():
    ds = separable_fixture(n_per_class=12, seed=13)
    perm = np.random.default_rng(0).permutation(len(ds))
    m1 = train_random_forest([ds], [4], n_trees=10, max_depth=4)[0]
    m2 = train_random_forest([ds.subset(perm)], [4], n_trees=10, max_depth=4)[0]
    assert m1.to_json() == m2.to_json()


def test_forest_empty_dataset_error():
    with pytest.raises(ValidationError):
        train_random_forest([Dataset(np.empty((0, 2)), np.empty(0, dtype=int), ())], [0])


# ---------------------------------------------------------------- GBT


def test_gbt_separable_training_accuracy():
    ds = separable_fixture(seed=14)
    model = train_gbt([ds], [0], n_rounds=60)[0]
    assert np.array_equal(model.predict(ds.vectors), ds.labels)


def test_gbt_zero_rounds_predicts_prior():
    vectors = np.random.default_rng(1).normal(size=(10, 2))
    labels = np.array([1] * 7 + [0] * 3)
    model = train_gbt([make_dataset(vectors, labels)], [0], n_rounds=0)[0]
    assert model.init_score == pytest.approx(np.log(0.7 / 0.3))
    assert np.array_equal(model.predict(vectors), np.ones(10, dtype=int))


def test_gbt_log_loss_decreases():
    rng = np.random.default_rng(15)
    vectors = rng.normal(size=(60, 3))
    labels = (vectors[:, 0] + 0.5 * vectors[:, 1] + rng.normal(0, 0.3, 60) > 0).astype(int)
    dataset = make_dataset(vectors, labels)
    model = train_gbt([dataset], [0], n_rounds=100)[0]
    # the training scores after each round, from the staged tree outputs
    X = dataset.vectors
    staged = model.init_score + model.learning_rate * np.cumsum(model.nodes.leaves(X), axis=1)
    y = dataset.labels[:, None]
    loss = (np.logaddexp(0.0, staged) - y * staged).mean(axis=0)
    assert loss[99] < loss[0]
    diffs = np.diff(loss)
    assert np.all(diffs <= 1e-9)


def test_gbt_single_class_error():
    ds = make_dataset([[0.0], [1.0]], [1, 1])
    with pytest.raises(ValidationError):
        train_gbt([ds], [0])


# ---------------------------------------------------------------- k-fold CV


class _ConstantOne:
    def predict(self, X):
        return np.ones(len(X), dtype=int)


def test_kfold_205_rows_fold_sizes():
    rng = np.random.default_rng(20)
    vectors = rng.normal(size=(205, 3))
    labels = np.array([1] * 87 + [0] * 118)
    ds = make_dataset(vectors, labels)
    folds = stratified_folds(ds, 10, seed=0)
    sizes = sorted(len(f) for f in folds)
    assert set(sizes) <= {20, 21}
    all_rows = np.concatenate(folds)
    assert len(all_rows) == 205
    assert len(np.unique(all_rows)) == 205


def test_kfold_constant_classifier_metrics():
    rng = np.random.default_rng(22)
    vectors = rng.normal(size=(40, 2))
    labels = np.array([1] * 20 + [0] * 20)
    ds = make_dataset(vectors, labels)

    def train_fn(datasets, seeds):
        return [_ConstantOne() for _ in datasets]

    [(metrics, deployed)] = kfold_cv(ds, 4, [train_fn], seed=0, k_neighbors=5, deployed=[(ds, 0)])
    assert isinstance(deployed, _ConstantOne)
    assert metrics.accuracy == pytest.approx(0.5)
    assert metrics.recall == pytest.approx(1.0)
    assert metrics.precision == pytest.approx(0.5)


def test_kfold_with_k_below_two_fits_each_deployed_set_alone():
    # one row of class 1: no split, so each learner fits its deployed set
    # in one call and is scored by that model on the dataset's own rows
    rng = np.random.default_rng(25)
    ds = make_dataset(rng.normal(size=(30, 2)), [1] + [0] * 29)
    other = separable_fixture(seed=26)
    calls = []

    def recording(train, **options):
        def train_fn(datasets, seeds):
            calls.append((train, list(datasets), list(seeds)))
            return train(datasets, seeds, **options)

        return train_fn

    train_fns = [recording(train_logreg), recording(train_random_forest, n_trees=5)]
    deployed = [(ds, 3), (other, 4)]
    results = kfold_cv(ds, 1, train_fns, seed=0, k_neighbors=5, deployed=deployed)
    assert [(train, seeds) for train, _, seeds in calls] == [
        (train_logreg, [3]),
        (train_random_forest, [4]),
    ]
    assert [datasets for _, datasets, _ in calls] == [[ds], [other]]
    for (metrics, model), (train, _, _) in zip(results, calls):
        assert isinstance(model, MODEL_TYPES[ModelKind(train.__name__.removeprefix("train_"))])
        assert metrics == compute_metrics(model.predict(ds.vectors), ds.labels)


def test_kfold_same_seed_same_folds():
    rng = np.random.default_rng(23)
    vectors = rng.normal(size=(50, 2))
    labels = np.array([1] * 25 + [0] * 25)
    ds = make_dataset(vectors, labels)
    f1 = stratified_folds(ds, 5, seed=9)
    f2 = stratified_folds(ds, 5, seed=9)
    for a, b in zip(f1, f2):
        assert np.array_equal(a, b)


def test_kfold_class_smaller_than_k_error():
    ds = make_dataset(np.zeros((12, 1)), [1] * 3 + [0] * 9)
    with pytest.raises(ValidationError, match="use k <= 3"):
        stratified_folds(ds, 5, seed=0)


def test_kfold_stratification_balance():
    rng = np.random.default_rng(24)
    vectors = rng.normal(size=(100, 2))
    labels = np.array([1] * 30 + [0] * 70)
    ds = make_dataset(vectors, labels)
    for fold in stratified_folds(ds, 10, seed=1):
        ones = int(ds.labels[fold].sum())
        assert ones == 3  # 30 positives spread evenly over 10 folds


# ---------------------------------------------------------------- serialization


@pytest.mark.parametrize(
    "trainer, kwargs",
    [
        (train_logreg, {}),
        (train_linear_svm, {}),
        (train_random_forest, {"n_trees": 8, "max_depth": 4}),
        (train_gbt, {"n_rounds": 10}),
    ],
)
def test_model_json_round_trip(trainer, kwargs):
    ds = separable_fixture(seed=30)
    model = trainer([ds], [1], **kwargs)[0]
    doc = model.to_json()
    kind = ModelKind(trainer.__name__.removeprefix("train_"))
    restored = MODEL_TYPES[kind].from_json(doc)
    probe = np.random.default_rng(2).normal(size=(20, 2))
    assert np.array_equal(model.predict(probe), restored.predict(probe))
