"""Tests for outlier removal, imputation, encoding, scaling, PCA, vectorize."""

import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cohortsense.core import DaySegment, ValidationError, WeeklyBatch
from cohortsense.preprocess import (
    _segment_mean_matrix,
    clean,
    fit_pipeline,
    impute,
    pca_fit,
    pca_project_matrix,
    pipeline_from_json,
    pipeline_to_json,
    remove_outliers,
    scaler_apply,
    scaler_fit,
    vectorize_week,
)

from columns import batch_of


def rec(pid, value_map, segment=DaySegment.MORNING, week=1, day="2019-04-01", cat=None):
    return (pid, day, segment, dict(value_map), dict(cat or {}))


# ---------------------------------------------------------------- outliers


def test_outlier_fence_drops_extreme_record():
    batch = batch_of(rec(f"p{i}", {"x": v}) for i, v in enumerate([1.0, 2.0, 3.0, 4.0, 100.0]))
    kept = remove_outliers(batch)
    # Q1=2, Q3=4, fence = (-1, 7): only the 100 falls outside
    assert batch.records[kept, 0].tolist() == [1.0, 2.0, 3.0, 4.0]


def test_outlier_identical_values_nothing_dropped():
    records = [rec(f"p{i}", {"x": 5.0}) for i in range(6)]
    assert remove_outliers(batch_of(records)).sum() == 6


def test_outlier_empty_batch():
    assert remove_outliers(batch_of([])).tolist() == []


def test_outlier_preserves_order_and_ignores_missing():
    records = [
        rec("p0", {"x": 1.0, "y": None}),
        rec("p1", {"x": 2.0, "y": 1.0}),
        rec("p2", {"x": 3.0, "y": 1.0}),
        rec("p3", {"x": 4.0, "y": 1.0}),
        rec("p4", {"x": 2.5, "y": 1.0}),
    ]
    batch = batch_of(records)
    kept = remove_outliers(batch)
    assert [batch.participant_ids[c] for c in batch.participants[kept]] == [
        "p0", "p1", "p2", "p3", "p4"
    ]


def test_outlier_all_missing_feature_errors():
    records = [rec(f"p{i}", {"x": None}) for i in range(5)]
    with pytest.raises(ValidationError, match="'x'"):
        remove_outliers(batch_of(records))


# ---------------------------------------------------------------- imputation


def impute_all(batch):
    return impute(batch, np.ones(len(batch.records), dtype=bool))


def test_impute_median_within_participant_segment():
    records = [
        rec("p0", {"x": 2.0}),
        rec("p0", {"x": None}),
        rec("p0", {"x": 4.0}),
    ]
    filled, _ = impute_all(batch_of(records))
    assert filled[1, 0] == pytest.approx(3.0)
    # observed values untouched
    assert filled[0, 0] == 2.0
    assert filled[2, 0] == 4.0


def token_after_impute(records, i):
    batch = batch_of(records)
    _, codes = impute_all(batch)
    return batch.tokens[0][codes[i, 0]]


def test_impute_mode_and_tie_break():
    records = [
        rec("p0", {}, cat={"c": "A"}),
        rec("p0", {}, cat={"c": "A"}),
        rec("p0", {}, cat={"c": None}),
        rec("p0", {}, cat={"c": "B"}),
    ]
    assert token_after_impute(records, 2) == "A"

    tied = [
        rec("p0", {}, cat={"c": "B"}),
        rec("p0", {}, cat={"c": "A"}),
        rec("p0", {}, cat={"c": None}),
    ]
    # tie between A and B resolves to the lexicographically smallest
    assert token_after_impute(tied, 2) == "A"


def test_impute_falls_back_to_batch_level():
    records = [
        rec("p0", {"x": None}, segment=DaySegment.NIGHT),
        rec("p1", {"x": 10.0}, segment=DaySegment.MORNING),
        rec("p1", {"x": 20.0}, segment=DaySegment.MORNING),
    ]
    filled, _ = impute_all(batch_of(records))
    assert filled[0, 0] == pytest.approx(15.0)


def test_impute_feature_missing_everywhere_errors():
    records = [rec("p0", {"x": None}), rec("p1", {"x": None})]
    with pytest.raises(ValidationError, match="'x'"):
        impute_all(batch_of(records))


def impute_by_loop(rows):
    """Reference imputation, one gap at a time: the median or mode of the
    row's (participant, segment) group, else of the batch; a mode tie goes
    to the smallest token."""

    def mode(tokens):
        counts = Counter(tokens)
        return min(t for t, c in counts.items() if c == max(counts.values()))

    def group(row):
        return [r for r in rows if (r[0], r[2]) == (row[0], row[2])]

    xs = [r[3]["x"] for r in rows if r[3]["x"] is not None]
    cs = [r[4]["c"] for r in rows if r[4]["c"] is not None]
    filled = []
    for row in rows:
        x, c = row[3]["x"], row[4]["c"]
        if x is None:
            near = [r[3]["x"] for r in group(row) if r[3]["x"] is not None]
            x = float(np.median(near or xs))
        if c is None:
            c = mode([r[4]["c"] for r in group(row) if r[4]["c"] is not None] or cs)
        filled.append((x, c))
    return filled


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["p0", "p1", "p2"]),
            st.sampled_from(list(DaySegment)),
            st.none() | st.floats(-5, 5, allow_nan=False),
            st.none() | st.sampled_from(["a", "b", "c"]),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_impute_equals_the_loop_reference(cells):
    assume(any(x is not None for _, _, x, _ in cells))
    assume(any(c is not None for _, _, _, c in cells))
    rows = [(pid, "2019-04-01", seg, {"x": x}, {"c": c}) for pid, seg, x, c in cells]
    batch = batch_of(rows)
    values, codes = impute_all(batch)
    got = [(v, batch.tokens[0][code]) for v, code in zip(values[:, 0].tolist(), codes[:, 0])]
    assert got == impute_by_loop(rows)


def impute_by_lexsort(batch, keep):
    """`impute` as it was before one sort per group size: one lexsort of
    the kept rows by (group, value) per continuous column with gaps."""
    rows = np.flatnonzero(keep)
    values, codes = batch.records[rows], batch.categories[rows]
    if not rows.size:
        return values, codes
    group = batch.participants[rows] * 4 + batch.segments[rows]
    keys, member, sizes = np.unique(group, return_inverse=True, return_counts=True)
    starts = np.cumsum(sizes) - sizes
    names = batch.continuous_features + batch.categorical_features
    ncont = len(batch.continuous_features)
    for j, column in enumerate([*values.T, *codes.T]):
        missing = np.isnan(column) if j < ncont else column < 0
        if missing.all():
            raise ValidationError(f"feature {names[j]!r} has no observed values")
        if not missing.any():
            continue
        observed = np.bincount(member[~missing], minlength=len(keys))
        if j < ncont:
            ranked = column[np.lexsort((column, group))]
            low = ranked[starts + (observed - 1) // 2]
            high = ranked[starts + observed // 2]
            fill = np.where(observed % 2 == 1, low, (low + high) / 2)
            fallback = float(np.median(column[~missing]))
        else:
            width = len(batch.tokens[j - ncont])
            counts = np.bincount(
                member[~missing] * width + column[~missing], minlength=len(keys) * width
            ).reshape(len(keys), width)
            fill = counts.argmax(axis=1)
            fallback = counts.sum(axis=0).argmax()
        column[missing] = np.where(observed > 0, fill, fallback)[member[missing]]
    return values, codes


@st.composite
def gappy_batches(draw):
    """A batch and a keep mask: 1-12 participants, so that many groups hold
    one row; values from a few repeated ones, ±0.0 among them; per column a
    gap rate from none to all, so that some groups observe nothing and
    some columns have no gap."""
    n = draw(st.integers(1, 60))
    n_cont, n_cat = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pids = [f"p{k}" for k in rng.integers(0, draw(st.integers(1, 12)), size=n)]
    values = np.array([-0.0, 0.0, 1.0, 2.5, -3.0, 0.1, 7.0])
    continuous = {}
    for j in range(n_cont):
        column = values[rng.integers(0, len(values), size=n)]
        if draw(st.booleans()):
            column = np.round(rng.normal(size=n), draw(st.integers(0, 3)))
        column[rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.6, 0.95]))] = np.nan
        continuous[f"x{j}"] = column
    categorical = {
        f"c{j}": [
            None if rng.random() < 0.4 else "abc"[t] for t in rng.integers(0, 3, size=n)
        ]
        for j in range(n_cat)
    }
    batch = WeeklyBatch.from_columns(
        week=1,
        participant_ids=pids,
        days=["2019-04-01"] * n,
        segments=rng.integers(0, 4, size=n),
        continuous=continuous,
        categorical=categorical,
        labels={},
    )
    return batch, rng.random(n) < draw(st.sampled_from([1.0, 0.7]))


@settings(max_examples=400, deadline=None)
@given(gappy_batches())
def test_impute_equals_the_lexsort_impute(case):
    batch, keep = case
    try:
        expected = impute_by_lexsort(batch, keep)
    except ValidationError as exc:
        with pytest.raises(ValidationError, match=f"^{re.escape(str(exc))}$"):
            impute(batch, keep)
        return
    values, codes = impute(batch, keep)
    # bit for bit: the sign of a zero median shows in the bytes
    assert values.tobytes() == expected[0].tobytes()
    assert np.array_equal(codes, expected[1])


def test_impute_of_one_large_group_runs_in_linear_memory():
    # one participant-segment holds 40,000 of the 42,000 rows, the others
    # one or two rows each: blocks padded to the largest group would hold
    # 1,000 x 40,000 x 2 values (640 MB); one block per group size holds
    # each row once
    rng = np.random.default_rng(9)
    n = 42_000
    pids = ["big"] * 40_000 + [f"p{k}" for k in rng.integers(0, 500, size=2_000)]
    segments = np.r_[np.zeros(40_000, dtype=int), rng.integers(0, 4, size=2_000)]
    continuous = {name: rng.normal(size=n) for name in ("x", "y")}
    for column in continuous.values():
        column[rng.random(n) < 0.3] = np.nan
    batch = WeeklyBatch.from_columns(
        week=1, participant_ids=pids, days=["2019-04-01"] * n, segments=segments,
        continuous=continuous, categorical={}, labels={},
    )
    keep = np.ones(n, dtype=bool)
    tracemalloc.start()
    try:
        impute(batch, keep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * batch.records.nbytes, f"peak {peak / 1e6:.1f} MB"


# ---------------------------------------------------------------- one-hot


def onehot_block(token, vocabulary):
    """The indicator block one row with this token adds to its segment means."""
    batch = batch_of([rec("p0", {}, cat={"c": token})])
    keep = np.ones(1, dtype=bool)
    _, matrix = _segment_mean_matrix(
        batch, keep, batch.records, batch.categories, (), {"c": vocabulary}
    )
    return matrix[0, : len(vocabulary)]


def test_onehot_known_unseen_and_width():
    vocab = ("A", "B", "C")
    assert np.array_equal(onehot_block("B", vocab), [0.0, 1.0, 0.0])
    assert np.array_equal(onehot_block("D", vocab), [0.0, 0.0, 0.0])
    assert len(onehot_block("A", ("A", "B"))) + len(onehot_block("A", vocab)) == 5


# ---------------------------------------------------------------- scaler


def test_scaler_maps_to_unit_interval():
    scaler = scaler_fit(np.array([[2.0], [4.0], [6.0]]))
    out = scaler_apply(scaler, np.array([[2.0], [4.0], [6.0]]))
    assert out.ravel() == pytest.approx([0.0, 0.5, 1.0])


def test_scaler_clamps_out_of_range():
    scaler = scaler_fit(np.array([[2.0], [6.0]]))
    assert scaler_apply(scaler, np.array([[8.0]]))[0, 0] == 1.0
    assert scaler_apply(scaler, np.array([[0.0]]))[0, 0] == 0.0


def test_scaler_constant_feature_maps_to_zero():
    scaler = scaler_fit(np.array([[5.0], [5.0]]))
    assert scaler_apply(scaler, np.array([[5.0], [7.0]])).ravel().tolist() == [0.0, 0.0]


def test_scaler_output_always_in_unit_interval():
    rng = np.random.default_rng(0)
    fit = rng.normal(size=(50, 4))
    apply = rng.normal(scale=10.0, size=(80, 4))
    out = scaler_apply(scaler_fit(fit), apply)
    assert out.min() >= 0.0 and out.max() <= 1.0


# ---------------------------------------------------------------- PCA


def variance_ratios(proj, matrix):
    """The share of the matrix's variance along each of proj's components."""
    coords = pca_project_matrix(proj, matrix)
    return coords.var(axis=0, ddof=1) / matrix.var(axis=0, ddof=1).sum()


def test_pca_collinear_points_single_component():
    t = np.linspace(0, 1, 30)
    matrix = np.column_stack([t, t])
    proj = pca_fit(matrix, variance_target=0.9)
    assert proj.components.shape[0] == 1
    assert variance_ratios(proj, matrix)[0] >= 0.999


def test_pca_isotropic_ratios_match_eigen_oracle():
    rng = np.random.default_rng(33)
    matrix = rng.normal(size=(4000, 2))
    proj = pca_fit(matrix, variance_target=1.0)
    ratios = variance_ratios(proj, matrix)
    assert ratios[0] == pytest.approx(0.5, abs=0.1)
    assert ratios[1] == pytest.approx(0.5, abs=0.1)
    # independent oracle: singular values of the centered data matrix
    centered = matrix - matrix.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    oracle = svals**2 / (svals**2).sum()
    assert np.allclose(np.sort(ratios), np.sort(oracle), atol=1e-9)


def test_pca_projecting_mean_gives_zero():
    rng = np.random.default_rng(34)
    matrix = rng.normal(size=(40, 5))
    proj = pca_fit(matrix, variance_target=0.9)
    assert np.allclose(pca_project_matrix(proj, matrix.mean(axis=0)[None, :]), 0.0, atol=1e-12)


def test_pca_reconstruction_with_all_components():
    rng = np.random.default_rng(35)
    matrix = rng.normal(size=(60, 4))
    proj = pca_fit(matrix, variance_target=1.0)
    coords = pca_project_matrix(proj, matrix)
    recon = proj.mean + coords @ proj.components
    assert np.max(np.abs(recon - matrix)) < 1e-6


def test_pca_minimum_two_components_when_available():
    rng = np.random.default_rng(36)
    base = rng.normal(size=(100, 1))
    # second direction has tiny variance: target reached by one component
    matrix = np.hstack([base * 10.0, rng.normal(scale=0.01, size=(100, 1))])
    proj = pca_fit(matrix, variance_target=0.5)
    assert proj.components.shape[0] == 2


def test_pca_component_rows_orthonormal():
    rng = np.random.default_rng(37)
    matrix = rng.normal(size=(80, 6))
    proj = pca_fit(matrix, variance_target=1.0)
    gram = proj.components @ proj.components.T
    assert np.allclose(gram, np.eye(len(gram)), atol=1e-8)
    assert variance_ratios(proj, matrix).sum() <= 1.0 + 1e-8


def test_pca_rank_zero_errors():
    with pytest.raises(ValidationError):
        pca_fit(np.ones((5, 3)), variance_target=0.9)


# ---------------------------------------------------------------- vectorize


DAYS = [f"2019-04-{d:02d}" for d in range(1, 8)]


def week_records(pid, segment_profile, cat_token=None, week=1, noise=None):
    """28 records (7 days x 4 segments) from a per-segment value profile."""
    records = []
    for day in DAYS:
        for seg in DaySegment:
            values = dict(segment_profile[seg])
            if noise is not None:
                values = {k: v + noise.normal(0, 0.01) for k, v in values.items()}
            cat = {"ctx": cat_token} if cat_token is not None else {}
            records.append(rec(pid, values, segment=seg, week=week, day=day, cat=cat))
    return records


def constant_profile(x, y):
    return {seg: {"x": x, "y": y} for seg in DaySegment}


def test_vectorize_identical_records_equals_single_profile_projection():
    profiles = {
        "p0": constant_profile(0.2, 0.9),
        "p1": constant_profile(0.8, 0.1),
        "p2": constant_profile(0.5, 0.5),
    }
    records = [r for pid, prof in profiles.items() for r in week_records(pid, prof)]
    batch = batch_of(records)
    pipeline = fit_pipeline(batch, 0.95, clean(batch))
    pids, vectors, omitted = vectorize_week(batch, pipeline, clean(batch))
    assert omitted == []
    assert pids == ["p0", "p1", "p2"]

    # p0's vector equals the projection of its constant segment profile
    width = len(pipeline.continuous_features) + sum(map(len, pipeline.vocabularies.values()))
    raw = np.tile([0.2, 0.9], 4)
    assert width * 4 == len(raw)
    scaled = scaler_apply(pipeline.scaler, raw[None, :])
    expected = pca_project_matrix(pipeline.projector, scaled[:1])[0]
    assert np.allclose(vectors[0], expected, atol=1e-10)


def test_vectorize_identical_participants_identical_vectors():
    prof = constant_profile(0.4, 0.6)
    records = week_records("p0", prof) + week_records("p1", prof) + week_records(
        "p2", constant_profile(0.9, 0.1)
    )
    batch = batch_of(records)
    pipeline = fit_pipeline(batch, 0.95, clean(batch))
    _, vectors, _ = vectorize_week(batch, pipeline, clean(batch))
    assert np.allclose(vectors[0], vectors[1])


def test_vectorize_affine_feature_rescale_absorbed():
    def batch_for(scale, shift):
        profiles = {
            "p0": {seg: {"x": 0.2 * scale + shift, "y": 0.9} for seg in DaySegment},
            "p1": {seg: {"x": 0.8 * scale + shift, "y": 0.1} for seg in DaySegment},
            "p2": {seg: {"x": 0.5 * scale + shift, "y": 0.5} for seg in DaySegment},
        }
        return batch_of(r for pid, prof in profiles.items() for r in week_records(pid, prof))

    batch_a = batch_for(1.0, 0.0)
    batch_b = batch_for(2.0, 3.0)
    vectors = []
    for batch in (batch_a, batch_b):
        cleaned = clean(batch)
        vectors.append(vectorize_week(batch, fit_pipeline(batch, 0.95, cleaned), cleaned)[1])
    vec_a, vec_b = vectors
    for a, b in zip(vec_a, vec_b):
        assert np.allclose(a, b, atol=1e-10)


def test_vectorize_unseen_category_encodes_zeros():
    records = (
        week_records("p0", constant_profile(0.1, 0.2), cat_token="alpha")
        + week_records("p1", constant_profile(0.9, 0.8), cat_token="beta")
    )
    first = batch_of(records)
    pipeline = fit_pipeline(first, 0.95, clean(first))
    assert pipeline.vocabularies["ctx"] == ("alpha", "beta")
    later = week_records("p9", constant_profile(0.5, 0.5), cat_token="gamma", week=2)
    batch = batch_of(later, week=2)
    _, vectors, omitted = vectorize_week(batch, pipeline, clean(batch))
    assert omitted == [] and len(vectors) == 1


def test_pipeline_json_round_trip():
    records = (
        week_records("p0", constant_profile(0.1, 0.2), cat_token="alpha")
        + week_records("p1", constant_profile(0.9, 0.8), cat_token="beta")
        + week_records("p2", constant_profile(0.4, 0.3), cat_token="alpha")
    )
    batch = batch_of(records)
    pipeline = fit_pipeline(batch, 0.9, clean(batch))
    restored = pipeline_from_json(pipeline_to_json(pipeline))
    _, v1, _ = vectorize_week(batch, pipeline, clean(batch))
    _, v2, _ = vectorize_week(batch, restored, clean(batch))
    for a, b in zip(v1, v2):
        assert np.array_equal(a, b)
