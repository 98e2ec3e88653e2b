"""Checks on a replay's outputs, computed apart from the program.

Every check returns a list of error strings; an empty list means it passed.
The checks read the files a replay leaves behind (per-week CSVs, labels,
plan and checkpoint) and recompute what they assert with their own code:
DBSCAN from a k-d tree, ARI from pair counts, confusion counts from votes.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

LONELY_ABOVE = 20  # a questionnaire score above this is labelled lonely
MIN_ARI = 0.8

Partition = tuple[frozenset[frozenset[str]], frozenset[str]]


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_checkpoint(path: Path) -> dict:
    with gzip.open(path, "rb") as fh:
        return json.loads(fh.read().decode("utf-8"))


def read_scores(data_dir: Path) -> dict[str, int]:
    return {r["participant_id"]: int(r["score"]) for r in read_csv(data_dir / "labels.csv")}


# ------------------------------------------------------------------ DBSCAN


def min_pts_for(n: int, density_fraction: float, floor: int) -> int:
    """max(floor, ceil(density_fraction * n)), in exact arithmetic."""
    return max(floor, math.ceil(Fraction(repr(density_fraction)) * n))


def dbscan(ids: list[str], vectors: np.ndarray, eps: float, min_pts: int) -> Partition:
    """DBSCAN on a k-d tree: core-core components, borders to smallest-id core."""
    order = sorted(range(len(ids)), key=ids.__getitem__)
    names = [ids[i] for i in order]
    X = np.asarray(vectors, dtype=float)[order]
    n = len(names)
    pairs = cKDTree(X).query_pairs(eps, output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    counts = np.bincount(np.concatenate([i, j]), minlength=n) + 1
    core = counts >= min_pts

    both = core[i] & core[j]
    graph = coo_matrix((np.ones(both.sum()), (i[both], j[both])), shape=(n, n))
    _, comp = connected_components(graph, directed=False)

    # border point -> smallest index (= smallest id) among its core neighbours
    owner = np.full(n, n, dtype=np.int64)
    for a, b in ((i, j), (j, i)):
        mask = ~core[a] & core[b]
        np.minimum.at(owner, a[mask], b[mask])
    label = np.where(core, comp, -1)
    border = ~core & (owner < n)
    label[border] = comp[owner[border]]

    members: dict[int, set[str]] = {}
    noise = set()
    for k, name in enumerate(names):
        if label[k] < 0:
            noise.add(name)
        else:
            members.setdefault(int(label[k]), set()).add(name)
    return frozenset(frozenset(m) for m in members.values()), frozenset(noise)


def as_partition(clusters: dict[str, frozenset[str]], noise: frozenset[str]) -> Partition:
    return frozenset(clusters.values()), frozenset(noise)


def check_partition(checkpoint: dict, program: Partition) -> list[str]:
    """The program's final partition equals DBSCAN recomputed here."""
    reg = checkpoint["registry"]
    ids = list(reg["ids"])
    min_pts = min_pts_for(len(ids), reg["density_fraction"], reg["min_pts_floor"])
    mine = dbscan(ids, np.array(reg["vectors"], dtype=float), reg["eps"], min_pts)
    if mine == program:
        return []
    return [
        f"partition differs from DBSCAN(eps={reg['eps']}, min_pts={min_pts}): "
        f"program {len(program[0])} clusters/{len(program[1])} noise, "
        f"recomputed {len(mine[0])} clusters/{len(mine[1])} noise"
    ]


# ------------------------------------------------------------------ ARI


def adjusted_rand_index(truth: list, pred: list) -> float:
    """Hubert-Arabie ARI from pair counts over the contingency table."""

    def pairs(counts) -> int:
        return sum(c * (c - 1) // 2 for c in counts)

    index = pairs(Counter(zip(truth, pred)).values())
    rows = pairs(Counter(truth).values())
    cols = pairs(Counter(pred).values())
    total = pairs([len(truth)])
    expected = rows * cols / total if total else 0.0
    best = (rows + cols) / 2
    if best == expected:
        return 1.0
    return (index - expected) / (best - expected)


def planted_groups(data_dir: Path) -> dict[str, str]:
    """Planted group of each (participant, week) point, from plan.json."""
    doc = json.loads((data_dir / "plan.json").read_text(encoding="utf-8"))
    return {
        f"{pid}|w{int(week):02d}": group
        for week, groups in doc["weekly_group_membership"].items()
        for group, members in groups.items()
        for pid in members
    }


def cohort_ari(program: Partition, planted: dict[str, str]) -> float:
    """ARI of the partition against planted groups; each noise point is a class."""
    clusters, noise = program
    label = {p: f"noise:{p}" for p in noise}
    for k, members in enumerate(sorted(clusters, key=min)):
        label.update(dict.fromkeys(members, k))
    points = sorted(label)
    missing = [p for p in points if p not in planted]
    if missing:
        raise ValueError(f"points without a planted group: {missing[:3]}")
    return adjusted_rand_index([planted[p] for p in points], [label[p] for p in points])


def check_ari(ari: float) -> list[str]:
    return [] if ari >= MIN_ARI else [f"cohort ARI {ari:.4f} below {MIN_ARI}"]


# ------------------------------------------------------------------ weekly files


def cohort_count(out_dir: Path, week: int) -> int:
    rows = read_csv(out_dir / f"clusters_week_{week}.csv")
    return len({r["cohort_label"] for r in rows} - {"noise"})


def check_cohort_count(out_dir: Path, week: int, expected: int) -> list[str]:
    got = cohort_count(out_dir, week)
    return [] if got == expected else [f"week {week}: {got} cohorts, expected {expected}"]


def check_votes(out_dir: Path, week: int) -> list[str]:
    """One vote per vectorized participant; 4 or 8 voters; generic_only iff 4."""
    errors = []
    points = read_csv(out_dir / f"clusters_week_{week}.csv")
    vectorized = sorted(r["point_id"].split("|")[0] for r in points)
    votes = read_csv(out_dir / f"votes_week_{week}.csv")
    voters = sorted(r["participant_id"] for r in votes)
    if voters != vectorized:
        errors.append(
            f"week {week}: {len(voters)} votes for {len(vectorized)} vectorized "
            f"participants ({len(set(voters))} distinct)"
        )
    for r in votes:
        n = int(r["n_voters"])
        if n not in (4, 8):
            errors.append(f"week {week}: {r['participant_id']} has {n} voters")
        elif (r["rule_used"] == "generic_only") != (n == 4):
            errors.append(
                f"week {week}: {r['participant_id']} rule {r['rule_used']} with {n} voters"
            )
    return errors


def holdout_confusion(
    out_dir: Path, week: int, holdout: frozenset[str], scores: dict[str, int]
) -> dict[str, int]:
    counts = dict.fromkeys(("tp", "fp", "fn", "tn"), 0)
    for r in read_csv(out_dir / f"votes_week_{week}.csv"):
        pid = r["participant_id"]
        if pid not in holdout:
            continue
        pred = int(r["prediction"])
        truth = int(scores[pid] > LONELY_ABOVE)
        key = ("t" if pred == truth else "f") + ("p" if pred else "n")
        counts[key] += 1
    return counts


def check_confusion(out_dir: Path, week: int, confusion: dict[str, int]) -> list[str]:
    """Hold-out confusion counts recomputed from votes equal the voting row."""
    rows = [r for r in read_csv(out_dir / f"report_week_{week}.csv") if r["scope"] == "voting"]
    if len(rows) != 1:
        return [f"week {week}: {len(rows)} voting rows in the report"]
    reported = {k: int(rows[0][k]) for k in confusion}
    if reported != confusion:
        return [f"week {week}: voting row {reported}, recomputed {confusion}"]
    return []


def f1_score(confusions: list[dict[str, int]]) -> float:
    tp = sum(c["tp"] for c in confusions)
    fp = sum(c["fp"] for c in confusions)
    fn = sum(c["fn"] for c in confusions)
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


# ------------------------------------------------------------------ resume


def state_summary(state) -> tuple[int, int, Partition]:
    """What a checkpoint must carry over: week, row count and partition."""
    return state.current_week, len(state.rows), as_partition(*state.registry.partition())


def check_resumed(saved: tuple, loaded: tuple) -> list[str]:
    names = ("week", "row count", "partition")
    return [
        f"loaded state differs from saved state in {name}"
        for name, a, b in zip(names, saved, loaded)
        if a != b
    ]
