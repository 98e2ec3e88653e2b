"""Insertion-only density clustering plus cohort identity tracking.

The registry stores points as they arrive and computes its partition on
demand, once per weekly snapshot: the same partition a batch DBSCAN run
gives on the current point set with the current density threshold, so
results do not depend on insertion order. A point is core when its
eps-ball holds at least min_pts points (self included), clusters are the
connected components of the core-core eps graph, and a border point joins
the cluster of its smallest-id core neighbor.

min_pts = max(min_pts_floor, ceil(density_fraction * point_count)) grows
with the stream, so a point that was core at one snapshot may be a border
or noise point at the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .core import ValidationError

PAIR_BUDGET = 2**14  # candidate pairs one block of `ClusterRegistry.partition` holds


def _min_pts_for(n: int, density_fraction: float, floor: int) -> int:
    # the epsilon guards float artifacts like 0.1 * 210 -> 21.000000000000004
    return max(floor, math.ceil(density_fraction * n - 1e-9))


def batch_dbscan(
    points: dict[str, np.ndarray], eps: float, min_pts: int
) -> tuple[dict[str, frozenset[str]], frozenset[str]]:
    """Textbook DBSCAN, used as the oracle for the incremental registry.

    Returns (clusters, noise) where clusters maps each cluster's smallest
    core point id to its member set. Border points reachable from several
    clusters go to the cluster of their smallest-id core neighbor.
    """
    ids = sorted(points)
    if not ids:
        return {}, frozenset()
    X = np.array([points[i] for i in ids], dtype=float)
    n = len(ids)
    diffs = X[:, None, :] - X[None, :, :]
    within = (diffs**2).sum(axis=2) <= eps * eps
    counts = within.sum(axis=1)
    core = counts >= min_pts

    comp = np.full(n, -1, dtype=int)
    n_comp = 0
    for start in range(n):
        if not core[start] or comp[start] >= 0:
            continue
        stack = [start]
        comp[start] = n_comp
        while stack:
            u = stack.pop()
            for v in np.nonzero(within[u] & core)[0]:
                if comp[v] < 0:
                    comp[v] = n_comp
                    stack.append(v)
        n_comp += 1

    members: dict[int, set[str]] = {c: set() for c in range(n_comp)}
    noise = set()
    for i in range(n):
        if core[i]:
            members[comp[i]].add(ids[i])
            continue
        core_nbrs = np.nonzero(within[i] & core)[0]
        if len(core_nbrs) == 0:
            noise.add(ids[i])
        else:
            # ids are scanned in sorted order, so the first is the smallest
            members[comp[core_nbrs[0]]].add(ids[i])

    clusters = {}
    for c, mem in members.items():
        key = min(ids[i] for i in range(n) if core[i] and comp[i] == c)
        clusters[key] = frozenset(mem)
    return clusters, frozenset(noise)


@dataclass(frozen=True)
class ClusterSnapshot:
    cohorts: dict[str, frozenset[str]]  # cohort label -> member point ids
    noise: frozenset[str]


def track_identity(
    prev: dict[str, frozenset[str]],
    current: dict[str, frozenset[str]],
    vanished: dict[str, frozenset[str]] | None = None,
) -> tuple[dict[str, str], dict[str, frozenset[str]]]:
    """Carry stable cohort labels from one weekly partition to the next.

    Each current cluster takes the previous cohort label with maximal
    Jaccard overlap when that overlap is at least 0.5. Overlap is computed
    on the previous snapshot's claimed points (the stream is insertion-only,
    so a stable cohort can more than double between snapshots; points that
    did not exist last time must not dilute its identity). A cluster
    matching nothing live is checked against vanished cohorts' last
    memberships (re-emergence) before receiving a fresh label. Fresh labels
    are handed out in decreasing size order, numbered on from the highest
    ``G<n>`` in ``prev`` or ``vanished``: every label handed out stays in
    one of the two. Returns (mapping internal id -> label, updated vanished
    memberships).
    """
    vanished = dict(vanished or {})
    used = [label[1:] for label in [*prev, *vanished] if label[:1] == "G"]
    last_fresh = max((int(n) for n in used if n.isdecimal()), default=0)
    universe: frozenset[str] = frozenset().union(*prev.values()) if prev else frozenset()

    def jaccard(a: frozenset, b: frozenset) -> float:
        if not a and not b:
            return 1.0
        return len(a & b) / len(a | b)

    def label_rank(label: str) -> int:
        return int(label[1:]) if label[1:].isdecimal() else 10**9

    mapping: dict[str, str] = {}
    taken: set[str] = set()

    candidates = []
    for key, members in current.items():
        restricted = members & universe
        for label, prev_members in prev.items():
            j = jaccard(restricted, prev_members)
            if j >= 0.5:
                candidates.append((-j, label_rank(label), key, label))
    for score, _, key, label in sorted(candidates):
        if key in mapping or label in taken:
            continue
        mapping[key] = label
        taken.add(label)

    # re-emergence: a cluster recovering a vanished cohort's last membership
    revived = []
    for key in sorted(set(current) - set(mapping)):
        best = None
        for label, old_members in vanished.items():
            if label in taken:
                continue
            j = jaccard(current[key] & old_members, old_members)
            if j >= 0.5 and (best is None or (j, -label_rank(label)) > best[0]):
                best = ((j, -label_rank(label)), label)
        if best is not None:
            label = best[1]
            mapping[key] = label
            taken.add(label)
            revived.append(label)
    for label in revived:
        del vanished[label]

    fresh = sorted(
        set(current) - set(mapping), key=lambda k: (-len(current[k]), k)
    )
    for index, key in enumerate(fresh, start=last_fresh + 1):
        mapping[key] = f"G{index}"

    for label, prev_members in prev.items():
        if label not in taken:
            vanished[label] = prev_members
    return mapping, vanished


class ClusterRegistry:
    """Single-writer append-only point store with an on-demand DBSCAN partition."""

    def __init__(
        self, eps: float, density_fraction: float = 0.1, min_pts_floor: int = 5
    ) -> None:
        if not 0 < eps < math.inf:
            raise ValidationError(f"eps must be positive and finite, got {eps}")
        if not 0 < density_fraction < 1:
            raise ValidationError(
                f"density_fraction must lie in (0, 1), got {density_fraction}"
            )
        self.eps = eps
        self.density_fraction = density_fraction
        self.min_pts_floor = min_pts_floor

        self._ids: list[str] = []
        self._index: dict[str, int] = {}
        self._vectors = np.empty((0, 0))  # one row per id

        # cohort identity tracking across snapshots
        self._prev_memberships: dict[str, frozenset[str]] = {}
        self._vanished: dict[str, frozenset[str]] = {}

    # ------------------------------------------------------------ properties

    @property
    def point_count(self) -> int:
        return len(self._ids)

    @property
    def point_ids(self) -> tuple[str, ...]:
        """Every stored point id, in insertion order."""
        return tuple(self._ids)

    @property
    def dim(self) -> int:
        """Width of the stored vectors; 0 before the first insert."""
        return self._vectors.shape[1]

    @property
    def min_pts(self) -> int:
        return _min_pts_for(
            max(self.point_count, 1), self.density_fraction, self.min_pts_floor
        )

    # ------------------------------------------------------------ mutation

    def insert(self, point_ids, vectors) -> None:
        """Append a batch of points: ids new and distinct, and one finite
        row per id, as wide as the stored rows."""
        ids = list(point_ids)
        X = np.array(vectors, dtype=float)
        index: dict[str, int] = {}
        for k, pid in enumerate(ids, start=len(self._ids)):
            if pid in index or pid in self._index:
                raise ValidationError(f"duplicate point id {pid!r}")
            index[pid] = k
        if X.ndim != 2 or len(X) != len(ids):
            raise ValidationError(f"registry vectors are not one row per id, got shape {X.shape}")
        if self._ids and X.shape[1] != self.dim:
            raise ValidationError(
                f"vector dimension {X.shape[1]} does not match registry dimension {self.dim}"
            )
        if not np.isfinite(X).all():
            raise ValidationError("registry vectors are not finite")
        self._vectors = np.concatenate([self._vectors, X]) if self._ids else X
        self._ids.extend(ids)
        self._index.update(index)

    # ------------------------------------------------------------ observation

    def vectors(self, point_ids) -> np.ndarray:
        """A copy of the stored vectors of ``point_ids``, one row each."""
        try:
            rows = [self._index[pid] for pid in point_ids]
        except KeyError as exc:
            raise ValidationError(f"unknown point id {exc.args[0]!r}") from None
        return self._vectors[rows]

    def partition(self) -> tuple[dict[str, frozenset[str]], frozenset[str]]:
        """Current clusters (canonical id -> members) and noise ids.

        Equal to `batch_dbscan` on the current points and min_pts, in memory
        linear in the point count. k-d tree queries at eps shrunk and widened
        by 1e-9 keep what is surely in and drop what is surely out, and only
        the thin shell between them is decided by the oracle's own
        squared-distance rule, so points exactly eps apart are decided as
        the oracle decides them. Rows are then queried against the cores in
        blocks of at most PAIR_BUDGET candidate pairs: core pairs join
        components, and a border takes its smallest-index core neighbor.
        """
        n = len(self._ids)
        if n == 0:
            return {}, frozenset()
        # work in id order, so that a smaller index is a smaller id: a border
        # point joins its smallest-id core neighbor, and a cluster is keyed by
        # its smallest-id core point
        names = sorted(self._ids)
        X = self._vectors[[self._index[pid] for pid in names]]
        eps2, inner, outer = self.eps * self.eps, self.eps * (1 - 1e-9), self.eps * (1 + 1e-9)
        tree = cKDTree(X)
        counts = tree.query_ball_point(X, inner, return_length=True)
        bound = tree.query_ball_point(X, outer, return_length=True)
        for r in np.flatnonzero(counts != bound):  # a neighbor lies in the shell
            counts[r] = np.count_nonzero(((X - X[r]) ** 2).sum(axis=1) <= eps2)
        core = counts >= self.min_pts
        cores = np.flatnonzero(core)
        core_tree = cKDTree(X[cores])

        # label: a core's component so far; owner: a border's smallest core neighbor
        label, owner = np.arange(n), np.full(n, n)
        ends, start = np.cumsum(bound), 0
        while start < n:
            stop = int(np.searchsorted(ends, ends[start] - bound[start] + PAIR_BUDGET, "right"))
            stop = max(stop, start + 1)
            block = cKDTree(X[start:stop])
            near = block.sparse_distance_matrix(core_tree, outer, output_type="ndarray")
            a, b, ok = near["i"] + start, cores[near["j"]], near["v"] <= inner
            shell = np.flatnonzero(~ok)
            ok[shell] = ((X[a[shell]] - X[b[shell]]) ** 2).sum(axis=1) <= eps2
            a, b = a[ok], b[ok]
            c = core[a]
            np.minimum.at(owner, a[~c], b[~c])
            u, v = label[a[c]], label[b[c]]
            cross = u != v
            if cross.any():  # join components; after the first joins few blocks do
                graph = sparse.coo_matrix((cross[cross], (u[cross], v[cross])), shape=(n, n))
                label = connected_components(graph, directed=False)[1][label]
            start = stop
        label = label[cores]
        head = np.full(n, n)  # smallest core index per component
        np.minimum.at(head, label, cores)
        key = np.full(n, -1)
        key[cores] = head[label]
        border = ~core & (owner < n)
        key[border] = key[owner[border]]

        clusters: dict[str, set[str]] = {}
        noise: set[str] = set()
        for name, k in zip(names, key.tolist()):
            if k < 0:
                noise.add(name)
            else:
                clusters.setdefault(names[k], set()).add(name)
        return {k: frozenset(m) for k, m in clusters.items()}, frozenset(noise)

    def snapshot(self) -> ClusterSnapshot:
        """Read-only copy of the partition with stable cohort labels.

        Taking a snapshot advances identity tracking: current clusters are
        matched to the previous snapshot's cohorts (or to vanished cohorts
        on re-emergence), and new clusters receive fresh labels.
        """
        partition, noise = self.partition()
        mapping, self._vanished = track_identity(self._prev_memberships, partition, self._vanished)
        cohorts = {mapping[key]: members for key, members in partition.items()}
        self._prev_memberships = dict(cohorts)
        return ClusterSnapshot(cohorts=cohorts, noise=noise)

    def copy(self) -> "ClusterRegistry":
        """Independent deep copy; the original is never affected by the copy."""
        new = ClusterRegistry(self.eps, self.density_fraction, self.min_pts_floor)
        new._ids = list(self._ids)
        new._index = dict(self._index)
        new._vectors = self._vectors.copy()
        new._prev_memberships = dict(self._prev_memberships)
        new._vanished = dict(self._vanished)
        return new

    # ------------------------------------------------------------ persistence

    def to_json(self) -> dict:
        """The registry as JSON. The last snapshot's cohorts are written once
        per point: ``prev_memberships`` holds, for each row of ``ids``, its
        cohort label or null. Vanished cohorts keep their id lists, since
        their points may sit in a live cohort too."""
        label_of = {pt: label for label, m in self._prev_memberships.items() for pt in m}
        return {
            "eps": self.eps,
            "density_fraction": self.density_fraction,
            "min_pts_floor": self.min_pts_floor,
            "ids": list(self._ids),
            "vectors": self._vectors.tolist(),
            "prev_memberships": [label_of.get(pid) for pid in self._ids],
            "vanished": {label: sorted(m) for label, m in self._vanished.items()},
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ClusterRegistry":
        reg = cls(
            float(doc["eps"]), float(doc["density_fraction"]), int(doc["min_pts_floor"])
        )
        ids = list(doc["ids"])
        if ids:
            reg.insert(ids, doc["vectors"])
        prev = doc["prev_memberships"]  # a cohort label or null per row of ids
        if (
            type(prev) is not list
            or len(prev) != len(ids)
            or not all(x is None or type(x) is str for x in prev)
        ):
            raise ValidationError("cohort memberships are not one label or null per point")
        cohorts: dict[str, list[str]] = {}
        for pid, label in zip(ids, prev):
            if label is not None:
                cohorts.setdefault(label, []).append(pid)
        reg._prev_memberships = {label: frozenset(m) for label, m in cohorts.items()}
        reg._vanished = {label: frozenset(m) for label, m in doc["vanished"].items()}
        tracked = [*reg._prev_memberships.values(), *reg._vanished.values()]
        if not all(members.issubset(reg._index) for members in tracked):
            raise ValidationError("cohort memberships name points outside the registry")
        return reg
