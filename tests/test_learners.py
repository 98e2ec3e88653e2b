"""Tests for the from-scratch learners, SMOTE, CV, and metrics."""

import numpy as np
import pytest

from cohortsense.core import ValidationError
from cohortsense.learners import (
    Dataset,
    compute_metrics,
    kfold_cv,
    logreg_gradient,
    logreg_loss,
    model_from_json,
    model_to_json,
    smote,
    stratified_folds,
    train_gbt,
    train_linear_svm,
    train_logreg,
    train_random_forest,
)


def make_dataset(vectors, labels, pids=None):
    vectors = np.asarray(vectors, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if pids is None:
        pids = tuple(f"p{i:03d}" for i in range(len(labels)))
    return Dataset(vectors=vectors, labels=labels, participant_ids=tuple(pids))


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
    out = smote(make_dataset(vectors, labels), k_neighbors=5, seed=7)
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
    out = smote(make_dataset(vectors, labels), 5, seed=1)
    assert out.class_counts() == (90, 90)
    # originals unchanged, order preserved
    assert np.array_equal(out.vectors[:120], vectors)
    assert np.array_equal(out.labels[:120], labels)
    # each synthetic row is the per-row formula x + u * (x_nn - x), with the
    # neighbour pick and u drawn alternately from one stream
    from cohortsense.learners.sampling import _minority_neighbors

    points = vectors[:30]  # the minority rows, already in canonical order
    neighbors = _minority_neighbors(points, 5)
    rng = np.random.default_rng(1)
    for i, row in enumerate(out.vectors[120:]):
        src = i % 30
        nn = neighbors[src][rng.integers(0, 5)]
        u = rng.random()
        assert np.array_equal(row, points[src] + u * (points[nn] - points[src]))


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
    from cohortsense.learners import sampling

    monkeypatch.setattr(sampling, "BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(block_rows)
    for n, dim in [(2, 1), (23, 2), (60, 3)]:
        # a coarse lattice, so that duplicates and distance ties are common
        points = rng.integers(0, 4, size=(n, dim)).astype(float)
        points[n // 2] = points[0]
        for k in range(1, n):
            expected = argsort_neighbors(points, k, block_rows)
            assert np.array_equal(sampling._minority_neighbors(points, k), expected), (n, k)


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
        ds = smote(make_dataset(rng.normal(size=(n, 2)), labels, pids), 5, seed=trial)
        ds = ds.subset(rng.permutation(len(ds)))  # originals and synthetics interleaved
        assert np.array_equal(ds.canonical_order(), key_order(ds))
    twice = make_dataset(np.zeros((3, 2)), [0, 1, 1], ("b", "a", "b"))
    with pytest.raises(ValidationError, match="'b' is not unique"):
        twice.canonical_order()


def test_smote_minority_too_small():
    ds = make_dataset([[0.0], [1.0], [2.0]], [1, 0, 0])
    with pytest.raises(ValidationError):
        smote(ds, 5, seed=0)


def test_smote_deterministic_and_order_independent():
    rng = np.random.default_rng(9)
    vectors = rng.normal(size=(40, 4))
    labels = np.array([1] * 12 + [0] * 28)
    ds = make_dataset(vectors, labels)
    out1 = smote(ds, 5, seed=3)
    perm = rng.permutation(40)
    out2 = smote(ds.subset(perm), 5, seed=3)
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
        out = smote(make_dataset(vectors, labels), 5, seed=trial)
        minority = vectors[:n_min]
        lo, hi = minority.min(axis=0), minority.max(axis=0)
        synth = out.vectors[n_min + n_maj :]
        assert np.all(synth >= lo - 1e-9) and np.all(synth <= hi + 1e-9)


# ---------------------------------------------------------------- logistic regression


def test_logreg_separable_training_accuracy():
    ds = separable_fixture()
    model = train_logreg(ds, seed=0)
    assert np.array_equal(model.predict(ds.vectors), ds.labels)


def test_logreg_symmetric_data_zero_bias():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(15, 3))
    vectors = np.vstack([pts, -pts])
    labels = np.array([1] * 15 + [0] * 15)
    model = train_logreg(make_dataset(vectors, labels), seed=0)
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


def test_logreg_trainer_steps_along_the_oracle_gradient():
    # the trainer computes its gradient inline; from zero, its first
    # iteration takes -step * logreg_gradient when that lowers the loss
    rng = np.random.default_rng(23)
    moved = 0
    for _ in range(50):
        n, d = int(rng.integers(4, 40)), int(rng.integers(1, 6))
        X = rng.normal(size=(n, d)) * rng.uniform(0.5, 5.0)
        y = rng.permutation(np.arange(n) % 2)
        step, l2 = float(10 ** rng.uniform(-1, 1.5)), float(rng.choice([0.0, 1e-3, 0.1]))
        model = train_logreg(make_dataset(X, y), iterations=1, step=step, l2=l2)
        grad_w, grad_b = logreg_gradient(np.zeros(d), 0.0, X, y.astype(float), l2)
        w, b = -step * grad_w, -step * grad_b
        if logreg_loss(w, b, X, y, l2) <= logreg_loss(np.zeros(d), 0.0, X, y, l2):
            moved += 1
            assert np.array_equal(model.weights, w) and model.bias == b
        else:
            assert not model.weights.any() and model.bias == 0.0
    assert 0 < moved < 50  # both branches ran


def test_logreg_loss_nonincreasing():
    ds = separable_fixture(seed=8)
    X, y = ds.vectors, ds.labels.astype(float)
    model = train_logreg(ds, seed=0, iterations=50)
    # final loss must not exceed the zero-init loss
    assert logreg_loss(model.weights, model.bias, X, y, 1e-3) <= logreg_loss(
        np.zeros(ds.dim), 0.0, X, y, 1e-3
    )


def test_logreg_single_class_error():
    ds = make_dataset([[0.0], [1.0]], [1, 1])
    with pytest.raises(ValidationError):
        train_logreg(ds, seed=0)


# ---------------------------------------------------------------- linear SVM


def test_svm_separable_training_accuracy():
    ds = separable_fixture(seed=5)
    model = train_linear_svm(ds, seed=0)
    assert np.array_equal(model.predict(ds.vectors), ds.labels)


def test_svm_scaling_leaves_training_signs_unchanged():
    ds = separable_fixture(seed=6)
    base = train_linear_svm(ds, seed=0)
    scaled = Dataset(
        vectors=ds.vectors * 3.0,
        labels=ds.labels,
        participant_ids=ds.participant_ids,
    )
    rescaled = train_linear_svm(scaled, seed=0)
    assert np.array_equal(base.predict(ds.vectors), rescaled.predict(scaled.vectors))


def test_svm_duplicated_dataset_same_predictions():
    ds = separable_fixture(seed=7)
    doubled = Dataset(
        vectors=np.vstack([ds.vectors, ds.vectors]),
        labels=np.concatenate([ds.labels, ds.labels]),
        participant_ids=ds.participant_ids + tuple(f"{p}x" for p in ds.participant_ids),
    )
    m1 = train_linear_svm(ds, seed=0)
    m2 = train_linear_svm(doubled, seed=0)
    probe = np.array([[0.3, -0.2], [-1.0, 0.5], [2.0, 2.0]])
    assert np.array_equal(m1.predict(probe), m2.predict(probe))


def test_svm_single_class_error():
    ds = make_dataset([[0.0], [1.0]], [0, 0])
    with pytest.raises(ValidationError):
        train_linear_svm(ds, seed=0)


# ---------------------------------------------------------------- random forest


def test_forest_single_class_constant_prediction():
    ds = make_dataset([[0.0], [1.0], [2.0], [3.0]], [1, 1, 1, 1])
    model = train_random_forest(ds, seed=0, n_trees=5, max_depth=3)
    assert np.array_equal(model.predict(np.array([[10.0], [-5.0]])), [1, 1])


def test_forest_heldout_accuracy_on_margin_fixture():
    train = separable_fixture(n_per_class=40, seed=10)
    test = separable_fixture(n_per_class=25, seed=99)
    model = train_random_forest(train, seed=0, n_trees=50, max_depth=6)
    acc = (model.predict(test.vectors) == test.labels).mean()
    assert acc >= 0.9


def test_forest_same_seed_identical():
    ds = separable_fixture(n_per_class=15, seed=12)
    m1 = train_random_forest(ds, seed=4, n_trees=10, max_depth=4)
    m2 = train_random_forest(ds, seed=4, n_trees=10, max_depth=4)
    assert model_to_json(m1) == model_to_json(m2)


def test_forest_row_order_invariance():
    ds = separable_fixture(n_per_class=12, seed=13)
    perm = np.random.default_rng(0).permutation(len(ds))
    m1 = train_random_forest(ds, seed=4, n_trees=10, max_depth=4)
    m2 = train_random_forest(ds.subset(perm), seed=4, n_trees=10, max_depth=4)
    assert model_to_json(m1) == model_to_json(m2)


def test_forest_empty_dataset_error():
    with pytest.raises(ValidationError):
        train_random_forest(
            Dataset(np.empty((0, 2)), np.empty(0, dtype=int), ()), seed=0
        )


# ---------------------------------------------------------------- GBT


def test_gbt_separable_training_accuracy():
    ds = separable_fixture(seed=14)
    model = train_gbt(ds, seed=0, n_rounds=60)
    assert np.array_equal(model.predict(ds.vectors), ds.labels)


def test_gbt_zero_rounds_predicts_prior():
    vectors = np.random.default_rng(1).normal(size=(10, 2))
    labels = np.array([1] * 7 + [0] * 3)
    model = train_gbt(make_dataset(vectors, labels), seed=0, n_rounds=0)
    assert model.init_score == pytest.approx(np.log(0.7 / 0.3))
    assert np.array_equal(model.predict(vectors), np.ones(10, dtype=int))


def test_gbt_log_loss_decreases():
    rng = np.random.default_rng(15)
    vectors = rng.normal(size=(60, 3))
    labels = (vectors[:, 0] + 0.5 * vectors[:, 1] + rng.normal(0, 0.3, 60) > 0).astype(int)
    dataset = make_dataset(vectors, labels)
    model = train_gbt(dataset, seed=0, n_rounds=100)
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
        train_gbt(ds, seed=0)


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
    metrics = kfold_cv(ds, 4, lambda dss, seeds: [_ConstantOne() for _ in dss], seed=0)
    assert metrics.accuracy == pytest.approx(0.5)
    assert metrics.recall == pytest.approx(1.0)
    assert metrics.precision == pytest.approx(0.5)


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
    model = trainer(ds, seed=1, **kwargs)
    doc = model_to_json(model)
    restored = model_from_json(doc)
    probe = np.random.default_rng(2).normal(size=(20, 2))
    assert np.array_equal(model.predict(probe), restored.predict(probe))
