"""Tests for batch DBSCAN, the incremental registry, and identity tracking."""

import json
import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohortsense import cluster
from cohortsense.cluster import (
    ClusterRegistry,
    batch_dbscan,
    track_identity,
)
from cohortsense.core import ValidationError


def as_points(ids, matrix):
    return {pid: np.asarray(row, dtype=float) for pid, row in zip(ids, matrix)}


def clustered_data(seed, n=120, dim=3, n_blobs=3, spread=0.25, noise_frac=0.15):
    """Gaussian blobs plus uniform background scatter."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-5, 5, size=(n_blobs, dim))
    n_noise = int(n * noise_frac)
    n_clustered = n - n_noise
    rows = []
    for i in range(n_clustered):
        c = centers[i % n_blobs]
        rows.append(c + rng.normal(0, spread, dim))
    rows.extend(rng.uniform(-8, 8, size=(n_noise, dim)))
    ids = [f"q{i:04d}" for i in range(n)]
    return as_points(ids, np.array(rows))


# ---------------------------------------------------------------- batch oracle


def test_batch_two_blobs_two_clusters_no_noise():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        eps = 1.0
        a = rng.normal((0.0, 0.0), eps / 4, size=(20, 2))
        b = rng.normal((10 * eps, 0.0), eps / 4, size=(20, 2))
        pts = as_points([f"p{i:02d}" for i in range(40)], np.vstack([a, b]))
        clusters, noise = batch_dbscan(pts, eps=eps, min_pts=5)
        assert len(clusters) == 2
        assert noise == frozenset()
        sizes = sorted(len(m) for m in clusters.values())
        assert sizes == [20, 20]


def test_batch_sparse_scatter_all_noise():
    grid = np.array([[i * 3.0, j * 3.0] for i in range(4) for j in range(4)])
    pts = as_points([f"p{i:02d}" for i in range(16)], grid)
    clusters, noise = batch_dbscan(pts, eps=1.0, min_pts=3)
    assert clusters == {}
    assert len(noise) == 16


def test_batch_stacked_duplicates_form_one_cluster():
    pts = as_points([f"p{i}" for i in range(4)], np.zeros((4, 2)))
    clusters, noise = batch_dbscan(pts, eps=0.5, min_pts=4)
    assert len(clusters) == 1
    assert noise == frozenset()
    assert clusters["p0"] == frozenset({"p0", "p1", "p2", "p3"})


def textbook_dbscan(X, eps, min_pts):
    """DBSCAN as Ester et al. (KDD 1996) state it: a core has at least
    ``min_pts`` points within ``eps``, itself included; each cluster is a
    breadth-first search over the eps-graph from an unlabelled core, which
    labels borders but expands only from cores. Returns the core mask and
    one label per point, -1 for noise."""
    adjacent = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2) <= eps * eps
    core = adjacent.sum(axis=1) >= min_pts
    labels = np.full(len(X), -1)
    cluster = 0
    for start in np.flatnonzero(core):
        if labels[start] >= 0:
            continue
        labels[start] = cluster
        queue = deque([start])
        while queue:
            i = queue.popleft()
            if core[i]:
                for j in np.flatnonzero(adjacent[i] & (labels < 0)):
                    labels[j] = cluster
                    queue.append(j)
        cluster += 1
    return core, labels


def cores_noise_parts(ids, core, labels):
    """Core ids, noise ids, and the core partition up to relabelling."""
    parts = [{ids[i] for i in np.flatnonzero(core & (labels == c))} for c in set(labels[core])]
    return (
        {ids[i] for i in np.flatnonzero(core)},
        {ids[i] for i in np.flatnonzero(labels == -1)},
        sorted(map(sorted, parts)),
    )


def test_batch_matches_the_textbook_search_on_cores_and_noise():
    """Batch DBSCAN against the textbook search."""
    for seed in range(5):
        pts = clustered_data(seed, n=100, dim=2)
        ids = sorted(pts)
        X = np.array([pts[i] for i in ids])
        eps, min_pts = 0.9, 5
        clusters, noise = batch_dbscan(pts, eps, min_pts)

        ref_core, ref_noise, ref_parts = cores_noise_parts(ids, *textbook_dbscan(X, eps, min_pts))
        assert ref_parts and ref_noise  # the draw has both clusters and noise
        assert set(noise) == ref_noise
        # core points must be partitioned identically (up to relabeling)
        assert sorted(sorted(set(m) & ref_core) for m in clusters.values()) == ref_parts
        assert set().union(*clusters.values()) | ref_noise == set(ids)


# ---------------------------------------------------------------- registry


def test_first_point_is_noise():
    reg = ClusterRegistry(eps=0.5)
    assert reg.insert(["p0"], [[0.0, 0.0]]) is None
    assert reg.partition() == ({}, frozenset({"p0"}))


def test_min_pts_th_point_seeds_cluster():
    reg = ClusterRegistry(eps=0.5, density_fraction=0.01, min_pts_floor=5)
    rng = np.random.default_rng(0)
    points = {f"p{i}": rng.normal(0, 0.05, 2) for i in range(5)}
    for i in range(4):
        reg.insert([f"p{i}"], [points[f"p{i}"]])
        assert reg.partition() == ({}, frozenset(f"p{k}" for k in range(i + 1)))
    reg.insert(["p4"], [points["p4"]])
    clusters, noise = reg.partition()
    assert clusters == {"p0": frozenset(points)} and noise == frozenset()
    oracle, oracle_noise = batch_dbscan(points, 0.5, 5)
    assert clusters == oracle and noise == oracle_noise


def test_joining_existing_cluster():
    reg = ClusterRegistry(eps=0.6, density_fraction=0.01, min_pts_floor=3)
    reg.insert(["p0", "p1", "p2"], [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]])
    assert reg.partition() == ({"p0": frozenset({"p0", "p1", "p2"})}, frozenset())
    reg.insert(["p3"], [[0.1, 0.1]])
    assert reg.partition() == (
        {"p0": frozenset({"p0", "p1", "p2", "p3"})},
        frozenset(),
    )


def test_dumbbell_merge():
    # two tight triangles, bridged by a point within eps of both cores
    reg = ClusterRegistry(eps=1.0, density_fraction=0.01, min_pts_floor=3)
    points = {}
    for i, xy in enumerate([(-2.0, 0.0), (-2.5, 0.4), (-2.5, -0.4)]):
        points[f"l{i}"] = np.array(xy)
    for i, xy in enumerate([(2.0, 0.0), (2.5, 0.4), (2.5, -0.4)]):
        points[f"r{i}"] = np.array(xy)
    reg.insert(points, list(points.values()))
    clusters, _ = reg.partition()
    assert set(clusters) == {"l0", "r0"}
    # 2 neighbors < min_pts 3 and no core in reach
    points["bridge"] = np.array((0.0, 0.0))
    reg.insert(["bridge"], [points["bridge"]])
    clusters, noise = reg.partition()
    assert set(clusters) == {"l0", "r0"} and noise == frozenset({"bridge"})
    points["bridge2"] = np.array((-1.0, 0.0))
    points["bridge3"] = np.array((1.0, 0.0))
    reg.insert(["bridge2", "bridge3"], [points["bridge2"], points["bridge3"]])
    clusters, noise = reg.partition()
    # the bridge points become cores and chain both triangles into one
    # cluster, keyed by its smallest core id
    assert clusters == {"bridge": frozenset(points)}
    oracle, oracle_noise = batch_dbscan(points, 1.0, 3)
    assert clusters == oracle and noise == oracle_noise


def test_duplicate_and_dimension_errors():
    reg = ClusterRegistry(eps=0.5)
    reg.insert(["p0"], [[0.0, 0.0]])
    with pytest.raises(ValidationError, match="duplicate point id 'p0'"):
        reg.insert(["p1", "p0"], [[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValidationError, match="duplicate point id 'p2'"):
        reg.insert(["p2", "p3", "p2", "p3"], np.ones((4, 2)))
    with pytest.raises(ValidationError, match="dimension 3 does not match"):
        reg.insert(["p1"], [[1.0, 1.0, 1.0]])
    with pytest.raises(ValidationError, match="not one row per id"):
        reg.insert(["p1", "p2"], [1.0, 1.0])
    with pytest.raises(ValidationError, match="not one row per id"):
        reg.insert(["p1", "p2"], [[1.0, 1.0]])
    with pytest.raises(ValidationError, match="not finite"):
        reg.insert(["p1", "p2"], [[1.0, 1.0], [math.nan, 0.0]])
    # a refused batch stores none of its points
    assert reg.point_ids == ("p0",) and reg.vectors(["p0"]).tolist() == [[0.0, 0.0]]


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
def test_eps_must_be_positive_and_finite(eps):
    # a NaN eps compares false with every distance, so each point would
    # come out as a cluster or noise of its own
    with pytest.raises(ValidationError):
        ClusterRegistry(eps, 0.1, 1)
    doc = ClusterRegistry(0.5).to_json()
    with pytest.raises(ValidationError):
        ClusterRegistry.from_json({**doc, "eps": eps})


@pytest.mark.parametrize("seed", range(4))
def test_registry_equals_batch_oracle_any_order(seed):
    pts = clustered_data(seed, n=120, dim=int(2 + seed % 3))
    rng = np.random.default_rng(seed + 100)
    partitions = []
    for perm in range(3):
        ids = list(pts)
        rng.shuffle(ids)
        reg = ClusterRegistry(eps=0.9, density_fraction=0.1, min_pts_floor=5)
        reg.insert(ids, [pts[pid] for pid in ids])
        partitions.append(reg.partition())
    final_min_pts = max(5, int(np.ceil(0.1 * len(pts))))
    oracle = batch_dbscan(pts, 0.9, final_min_pts)
    for part in partitions:
        assert part == oracle


@st.composite
def registry_cases(draw):
    """Small point sets on a 0.1 lattice, with partners placed eps apart.

    Lattice coordinates make many pairwise distances land on eps itself or
    one rounding step beside it, which is where a k-d tree query and the
    oracle's squared-distance rule could disagree.
    """
    eps = draw(st.sampled_from([0.5, 1.0]))
    dim = draw(st.integers(1, 3))
    coord = st.integers(0, 30).map(lambda k: k / 10)
    vectors = draw(st.lists(st.tuples(*[coord] * dim), max_size=30))
    diagonal = np.r_[0.6, 0.8, np.zeros(dim - 2)] if dim > 1 else np.ones(1)
    partners = draw(st.integers(0, len(vectors)))
    for v in list(vectors[:partners]):
        axis = draw(st.integers(0, dim - 1))
        step = diagonal if draw(st.booleans()) else np.eye(dim)[axis]
        vectors.append(tuple(np.asarray(v) + eps * step))
    ids = draw(
        st.lists(
            st.text("abz09|w", min_size=1, max_size=5),
            min_size=len(vectors),
            max_size=len(vectors),
            unique=True,
        )
    )
    order = draw(st.permutations(range(len(vectors))))
    floor = draw(st.integers(1, 5))
    fraction = draw(st.sampled_from([0.01, 0.1, 0.3]))
    return eps, floor, fraction, [(ids[k], np.asarray(vectors[k])) for k in order]


@settings(max_examples=300, deadline=None)
@given(registry_cases())
def test_registry_partition_equals_batch_dbscan(case):
    eps, floor, fraction, stream = case
    reg = ClusterRegistry(eps=eps, density_fraction=fraction, min_pts_floor=floor)
    for pid, vector in stream:
        reg.insert([pid], [vector])
    assert reg.partition() == batch_dbscan(dict(stream), eps, reg.min_pts)


@settings(max_examples=300, deadline=None)
@given(registry_cases(), st.sampled_from([1, 2, 7]))
def test_partition_in_small_blocks_equals_batch_dbscan(case, budget):
    """Blocks of one row or a few pairs, pairs exactly eps apart and stacked
    duplicates: the shell rule, the exact counts and joins of components
    found in different blocks all run."""
    eps, floor, fraction, stream = case
    reg = ClusterRegistry(eps=eps, density_fraction=fraction, min_pts_floor=floor)
    for pid, vector in stream:
        reg.insert([pid], [vector])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cluster, "PAIR_BUDGET", budget)
        assert reg.partition() == batch_dbscan(dict(stream), eps, reg.min_pts)


def test_partition_runs_in_bounded_memory():
    # three dense blobs, 5,000 points: every point is core. Listing the
    # 3.3 M pairs within eps at once peaked at 158 MB under tracemalloc;
    # blocks of PAIR_BUDGET candidate pairs peak at 1.5 MB
    rng = np.random.default_rng(5)
    centers = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
    reg = ClusterRegistry(eps=0.5, density_fraction=0.1, min_pts_floor=5)
    X = centers[np.arange(5000) % 3] + rng.normal(0, 0.2, (5000, 2))
    reg.insert([f"p{i:04d}" for i in range(5000)], X)
    tracemalloc.start()
    try:
        clusters, noise = reg.partition()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(clusters) == 3 and not noise
    assert peak < 16 * 2**20


def test_weekly_batches_shuffled_points_and_a_load_fill_the_same_registry():
    weeks = [clustered_data(seed, n=60, dim=2) for seed in range(3)]
    points = {f"{pid}|w{w}": x for w, week in enumerate(weeks, 1) for pid, x in week.items()}
    weekly = ClusterRegistry(eps=0.9, density_fraction=0.1, min_pts_floor=5)
    for w, week in enumerate(weeks, 1):
        weekly.insert([f"{pid}|w{w}" for pid in week], list(week.values()))
    ids = list(points)
    np.random.default_rng(3).shuffle(ids)
    shuffled = ClusterRegistry(eps=0.9, density_fraction=0.1, min_pts_floor=5)
    shuffled.insert(ids, [points[pid] for pid in ids])
    loaded = ClusterRegistry.from_json(json.loads(json.dumps(weekly.to_json())))

    def by_id(doc):
        order = sorted(range(len(doc["ids"])), key=doc["ids"].__getitem__)
        rows = {key: [doc[key][k] for k in order] for key in ("ids", "vectors", "prev_memberships")}
        return {**doc, **rows}

    clusters, noise = weekly.partition()
    assert len(clusters) > 1 and noise
    assert (clusters, noise) == shuffled.partition() == loaded.partition()
    assert (clusters, noise) == batch_dbscan(points, 0.9, weekly.min_pts)
    assert loaded.to_json() == weekly.to_json()
    assert by_id(shuffled.to_json()) == by_id(weekly.to_json())
    assert shuffled.point_ids == tuple(ids) and loaded.point_ids == weekly.point_ids
    for reg in (weekly, shuffled, loaded):
        reg.snapshot()
    assert loaded.to_json() == weekly.to_json()
    assert by_id(shuffled.to_json()) == by_id(weekly.to_json())


def test_min_pts_growth_formula():
    reg = ClusterRegistry(eps=0.5, density_fraction=0.1, min_pts_floor=5)
    rng = np.random.default_rng(7)
    for i in range(130):
        reg.insert([f"p{i:03d}"], [rng.uniform(-10, 10, 2)])
        expected = max(5, int(np.ceil(0.1 * (i + 1) - 1e-9)))
        assert reg.min_pts == expected


def test_noise_promotion_monotone_under_fixed_min_pts():
    # density_fraction tiny: the floor dominates, so min_pts stays fixed
    reg = ClusterRegistry(eps=0.8, density_fraction=0.001, min_pts_floor=4)
    rng = np.random.default_rng(8)
    pts = clustered_data(9, n=80, dim=2)
    clustered_so_far: set[str] = set()
    for pid in pts:
        reg.insert([pid], [pts[pid]])
        clusters, noise = reg.partition()
        in_cluster = set().union(*clusters.values()) if clusters else set()
        assert clustered_so_far <= in_cluster
        clustered_so_far = in_cluster


# ---------------------------------------------------------------- snapshots


def test_empty_registry_snapshot():
    reg = ClusterRegistry(eps=0.5)
    snap = reg.snapshot()
    assert snap.cohorts == {} and snap.noise == frozenset()


def test_snapshot_labels_by_size_order():
    reg = ClusterRegistry(eps=0.6, density_fraction=0.01, min_pts_floor=3)
    rng = np.random.default_rng(10)
    for i in range(8):
        reg.insert([f"a{i}"], [(0.0, 0.0) + rng.normal(0, 0.05, 2)])
    for i in range(4):
        reg.insert([f"b{i}"], [(5.0, 5.0) + rng.normal(0, 0.05, 2)])
    snap = reg.snapshot()
    assert set(snap.cohorts) == {"G1", "G2"}
    assert len(snap.cohorts["G1"]) == 8
    assert len(snap.cohorts["G2"]) == 4


def test_snapshot_membership_partitions_points():
    reg = ClusterRegistry(eps=0.6, density_fraction=0.01, min_pts_floor=3)
    rng = np.random.default_rng(11)
    pts = clustered_data(12, n=60, dim=2)
    reg.insert(pts, list(pts.values()))
    snap = reg.snapshot()
    union = set(snap.noise)
    total = 0
    for members in snap.cohorts.values():
        union |= members
        total += len(members)
    assert union == set(pts)
    assert total + len(snap.noise) == len(pts)


# ---------------------------------------------------------------- identity


def test_track_identity_identical_partition():
    prev = {"G1": frozenset({"a", "b", "c"}), "G2": frozenset({"d", "e"})}
    current = {"k1": frozenset({"a", "b", "c"}), "k2": frozenset({"d", "e"})}
    mapping, vanished = track_identity(prev, current, {})
    assert mapping == {"k1": "G1", "k2": "G2"}
    assert vanished == {}


def test_track_identity_growth_keeps_label():
    prev = {"G1": frozenset({"a", "b"})}
    current = {"k": frozenset({"a", "b", "c", "d"})}  # jaccard exactly 0.5
    mapping, _ = track_identity(prev, current, {})
    assert mapping == {"k": "G1"}


def test_track_identity_split_large_keeps_small_fresh():
    members = [f"m{i:02d}" for i in range(100)]
    prev = {"G1": frozenset(members)}
    current = {
        "big": frozenset(members[:90]),
        "small": frozenset(members[90:]),
    }
    mapping, _ = track_identity(prev, current, {})
    assert mapping["big"] == "G1"
    assert mapping["small"] == "G2"


def test_track_identity_reemergence_restores_label():
    old = frozenset(f"m{i}" for i in range(10))
    vanished = {"G4": old}
    # re-forms with 80% of its old members
    current = {"k": frozenset(list(old)[:8] + ["new1", "new2"])}
    mapping, vanished_out = track_identity({}, current, vanished)
    assert mapping == {"k": "G4"}
    assert "G4" not in vanished_out


def test_track_identity_vanish_records_membership():
    prev = {"G1": frozenset({"a", "b"}), "G2": frozenset({"c", "d"})}
    current = {"k": frozenset({"a", "b"})}
    mapping, vanished = track_identity(prev, current, {})
    assert mapping == {"k": "G1"}
    assert vanished == {"G2": frozenset({"c", "d"})}


def test_track_identity_merge_takes_larger_constituent():
    prev = {"G1": frozenset(f"a{i}" for i in range(30)), "G2": frozenset({"b0", "b1"})}
    current = {"k": frozenset([f"a{i}" for i in range(30)] + ["b0", "b1"])}
    mapping, vanished = track_identity(prev, current, {})
    assert mapping == {"k": "G1"}
    assert vanished == {"G2": frozenset({"b0", "b1"})}


def test_fresh_labels_number_on_across_saves_while_a_cohort_vanishes_and_returns():
    # min_pts grows with the stream: b's 8 points stop being a cohort at
    # 88 points, and come back as G2 once b has 18 of 128
    rng = np.random.default_rng(41)

    def blob(name, center, start, stop):
        return {f"{name}{i:02d}": center + rng.normal(0, 0.03, 2) for i in range(start, stop)}

    waves = [
        blob("a", (0, 0), 0, 20),
        blob("b", (5, 5), 0, 8),
        blob("a", (0, 0), 20, 80),
        {**blob("b", (5, 5), 8, 18), **blob("c", (10, 0), 0, 30)},
        blob("d", (-10, 0), 0, 20),
    ]
    straight = ClusterRegistry(eps=0.5, density_fraction=0.1, min_pts_floor=3)
    doc = straight.to_json()
    labels = []
    for wave in waves:
        resumed = ClusterRegistry.from_json(doc)
        straight.insert(wave, list(wave.values()))
        resumed.insert(wave, list(wave.values()))
        snap = straight.snapshot()
        assert resumed.snapshot() == snap
        doc = json.loads(json.dumps(resumed.to_json()))
        labels.append(sorted(snap.cohorts))
    # c's fresh G3 numbers on from G2, vanished until the same snapshot
    assert labels == [["G1"], ["G1", "G2"], ["G1"], ["G1", "G2", "G3"], ["G1", "G2", "G3", "G4"]]
    assert snap.cohorts["G2"] == frozenset(f"b{i:02d}" for i in range(18))
    assert snap.cohorts["G3"] == frozenset(waves[3]) - snap.cohorts["G2"]
    assert snap.cohorts["G4"] == frozenset(waves[4])


# ---------------------------------------------------------------- persistence


def test_registry_json_round_trip():
    pts = clustered_data(13, n=70, dim=3)
    reg = ClusterRegistry(eps=0.9, density_fraction=0.1, min_pts_floor=5)
    reg.insert(pts, list(pts.values()))
    reg.snapshot()
    restored = ClusterRegistry.from_json(reg.to_json())
    assert restored.partition() == reg.partition()
    assert restored.min_pts == reg.min_pts
    # both must continue identically, cohort labels included
    reg.insert(["zz_new"], np.zeros((1, 3)))
    restored.insert(["zz_new"], np.zeros((1, 3)))
    assert restored.partition() == reg.partition()
    assert restored.snapshot() == reg.snapshot()
    assert restored.to_json() == reg.to_json()


def test_registry_json_writes_each_point_s_cohort_once_and_refuses_id_lists():
    pts = clustered_data(13, n=70, dim=3)
    reg = ClusterRegistry(eps=0.9, density_fraction=0.1, min_pts_floor=5)
    reg.insert(pts, list(pts.values()))
    snap = reg.snapshot()
    doc = reg.to_json()
    label_of = {pt: label for label, members in snap.cohorts.items() for pt in members}
    assert doc["prev_memberships"] == [label_of.get(pid) for pid in doc["ids"]]
    assert snap.noise and None in doc["prev_memberships"]
    reg.insert(["zz_new"], np.zeros((1, 3)))
    expected = reg.snapshot()
    restored = ClusterRegistry.from_json(doc)
    assert restored.to_json() == doc
    restored.insert(["zz_new"], np.zeros((1, 3)))
    assert restored.snapshot() == expected
    # a sorted id list per cohort label, as earlier checkpoints held
    # them, is refused, also when it holds one label per point
    id_lists = {k: sorted(m) for k, m in snap.cohorts.items()}
    padded = {**id_lists, **{f"pad{k}": [] for k in range(len(doc["ids"]) - len(id_lists))}}
    assert len(padded) == len(doc["ids"])
    for prev in (id_lists, padded):
        with pytest.raises(ValidationError, match="not one label or null per point"):
            ClusterRegistry.from_json(dict(doc, prev_memberships=prev))
