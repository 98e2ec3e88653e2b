"""Generic and per-cohort model sets, weekly refresh, and multi-model voting."""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field

import numpy as np

from .cluster import ClusterSnapshot
from .core import EngineConfig, LearnerConfig, ValidationError
from .learners import (
    Dataset,
    Metrics,
    compute_metrics,
    kfold_cv,
    model_from_json,
    model_to_json,
    smote,
    train_gbt,
    train_gbt_many,
    train_linear_svm,
    train_linear_svm_many,
    train_logreg,
    train_logreg_many,
    train_random_forest,
    train_random_forest_many,
)
from .learners.base import KIND_ORDER, ModelKind, derive_seed

log = logging.getLogger(__name__)

GENERIC_SCOPE = "generic"


@dataclass
class ModelSet:
    """All four trained kinds for one scope, with validation scores."""

    models: dict[ModelKind, object]
    validation_f1: dict[ModelKind, float]
    input_dim: int

    def __post_init__(self) -> None:
        if set(self.models) != set(KIND_ORDER):
            raise ValidationError("a model set must hold all four kinds")
        f1 = self.validation_f1
        if set(f1) != set(KIND_ORDER) or not all(0.0 <= v <= 1.0 for v in f1.values()):
            raise ValidationError("a model set must hold one validation F1 in [0, 1] per kind")


@dataclass
class ModelPool:
    generic: ModelSet | None = None
    specialized: dict[str, ModelSet] = field(default_factory=dict)


@dataclass(frozen=True)
class VoteOutcome:
    prediction: int
    tally: dict[str, int]  # voter name -> vote
    rule_used: str  # majority | weighted_f1 | generic_only


@dataclass(frozen=True)
class EvalRow:
    scope: str  # generic | specialized | voting
    cohort: str  # cohort label for specialized rows, else ""
    kind: str  # model kind value, or "ensemble"
    metrics: Metrics


def _options(kind: ModelKind, lc: LearnerConfig, init: object | None) -> dict:
    """Keyword arguments of ``kind``'s trainers; ``init`` warm-starts the linear kinds."""
    if kind is ModelKind.LOGREG:
        return {
            "iterations": lc.logreg_iterations,
            "step": lc.logreg_step,
            "l2": lc.logreg_l2,
            "init": init,
        }
    if kind is ModelKind.LINEAR_SVM:
        return {"epochs": lc.svm_epochs, "l2": lc.svm_l2, "init": init}
    if kind is ModelKind.RANDOM_FOREST:
        return {"n_trees": lc.forest_trees, "max_depth": lc.forest_depth}
    return {
        "n_rounds": lc.gbt_rounds,
        "max_depth": lc.gbt_depth,
        "learning_rate": lc.gbt_learning_rate,
    }


def _train_kind(kind: ModelKind, dataset: Dataset, seed: int, lc: LearnerConfig, init=None):
    # looked up per call, so that a wrapper patched over a trainer is used
    trainer = {
        ModelKind.LOGREG: train_logreg,
        ModelKind.LINEAR_SVM: train_linear_svm,
        ModelKind.RANDOM_FOREST: train_random_forest,
        ModelKind.GBT: train_gbt,
    }[kind]
    return trainer(dataset, seed, **_options(kind, lc, init))


def _train_many(
    kind: ModelKind, datasets: list[Dataset], seeds: list[int], lc: LearnerConfig, init=None
) -> list:
    """One model per (dataset, seed), all trained in one call."""
    trainer = {
        ModelKind.LOGREG: train_logreg_many,
        ModelKind.LINEAR_SVM: train_linear_svm_many,
        ModelKind.RANDOM_FOREST: train_random_forest_many,
        ModelKind.GBT: train_gbt_many,
    }[kind]
    return trainer(datasets, seeds, **_options(kind, lc, init))


def _balanced(dataset: Dataset, config: EngineConfig, seed: int) -> Dataset:
    zeros, ones = dataset.class_counts()
    if zeros != ones and min(zeros, ones) >= 2:
        return smote(dataset, config.smote_neighbors, seed)
    return dataset


def _fit_set(
    scope: str,
    dataset: Dataset,
    config: EngineConfig,
    seed: int,
    previous: ModelSet | None,
) -> tuple[ModelSet, list[str]]:
    """Train all four kinds with k-fold validation scores.

    SMOTE is applied inside training folds during validation and to the
    full data for the deployed fit; each kind trains its folds and its
    deployed model in one batched call. Linear kinds warm-start from the
    previous week's parameters.
    """
    events: list[str] = []
    zeros, ones = dataset.class_counts()
    k = min(config.cv_folds, zeros, ones)
    lc = config.learners

    models: dict[ModelKind, object] = {}
    scores: dict[ModelKind, float] = {}
    for kind in KIND_ORDER:
        kind_seed = derive_seed(config.rng_seed, "train", scope, kind.value, seed)
        init = None
        if previous is not None and kind in (ModelKind.LOGREG, ModelKind.LINEAR_SVM):
            init = previous.models.get(kind)
        balanced = _balanced(dataset, config, derive_seed(kind_seed, "smote"))
        if k >= 2:
            metrics, models[kind] = kfold_cv(
                dataset,
                k,
                functools.partial(_train_many, kind, lc=lc, init=init),
                derive_seed(kind_seed, "cv"),
                smote_neighbors=config.smote_neighbors,
                deployed=(balanced, kind_seed),
            )
            scores[kind] = metrics.f1
        else:
            # too few rows in one class for any fold split: score the
            # deployed model on its own training data and say so
            models[kind] = _train_kind(kind, balanced, kind_seed, lc, init=init)
            events.append(
                f"{scope}: class counts {zeros}/{ones} too small for CV; "
                f"validation_f1 for {kind.value} uses training predictions"
            )
            scores[kind] = compute_metrics(
                models[kind].predict(dataset.vectors), dataset.labels
            ).f1
    return ModelSet(models=models, validation_f1=scores, input_dim=dataset.dim), events


def refresh_generic(
    pool: ModelPool,
    rows: Dataset,
    config: EngineConfig,
    seed: int,
    week: int,
) -> tuple[ModelPool, list[str]]:
    """Retrain the generic set on the cumulative labeled rows.

    Single-class data leaves the pool untouched (warning logged): there is
    nothing a binary classifier can learn from it yet.
    """
    labels = set(rows.labels.tolist())
    if labels != {0, 1}:
        message = (
            f"week {week}: generic refresh skipped, cumulative data is "
            f"single-class ({sorted(labels)})"
        )
        log.warning(message)
        return pool, [message]
    model_set, events = _fit_set(GENERIC_SCOPE, rows, config, seed, previous=pool.generic)
    return ModelPool(generic=model_set, specialized=dict(pool.specialized)), events


def refresh_specialized(
    pool: ModelPool,
    snapshot: ClusterSnapshot,
    rows: Dataset,
    config: EngineConfig,
    seed: int,
    week: int,
) -> tuple[ModelPool, list[str]]:
    """(Re)train one set per sufficiently large, two-class cohort.

    A cohort trains on its members among ``rows``, in point-id order.
    Cohorts absent from the snapshot keep their last set frozen; undersized
    or single-class-dominated cohorts are skipped with a log entry.
    """
    events: list[str] = []
    specialized = dict(pool.specialized)
    order = rows.canonical_order()
    ids = np.array(rows.participant_ids, dtype=str)[order]
    for label in sorted(snapshot.cohorts):
        members = snapshot.cohorts[label]
        if len(members) < config.min_cohort_size:
            events.append(
                f"week {week}: cohort {label} has {len(members)} members, "
                f"below min_cohort_size {config.min_cohort_size}; no specialized set"
            )
            continue
        cohort_rows = rows.subset(order[np.isin(ids, list(members))])
        zeros, ones = cohort_rows.class_counts()
        if min(zeros, ones) < config.min_class_count:
            events.append(
                f"week {week}: cohort {label} class counts {zeros}/{ones} below "
                f"min_class_count {config.min_class_count}; no specialized set"
            )
            continue
        model_set, fit_events = _fit_set(
            label,
            cohort_rows,
            config,
            derive_seed(seed, label),
            previous=specialized.get(label),
        )
        specialized[label] = model_set
        events.extend(fit_events)
    return ModelPool(generic=pool.generic, specialized=specialized), events


def vote(
    pool: ModelPool, X: np.ndarray, assignments: list[str | None]
) -> list[VoteOutcome]:
    """Majority vote per row of ``X`` over the generic set plus the set of
    the row's cohort ``assignments[i]``; each model predicts its rows in one
    call. A tie is broken by summing each side's validation F1 weights; a
    persisting tie predicts lonely (1): in a screening setting false
    negatives cost more. Noise and cohorts without a live set vote
    generic-only.
    """
    if pool.generic is None:
        raise ValidationError("cannot vote before the generic set exists")
    X = np.asarray(X, dtype=float)
    if X.shape != (len(assignments), pool.generic.input_dim):
        raise ValidationError(
            f"vectors of shape {X.shape} do not match {len(assignments)} "
            f"assignments and model dimension {pool.generic.input_dim}"
        )
    voters = [(GENERIC_SCOPE, pool.generic, list(range(len(X))))] + [
        (label, pool.specialized[label], [i for i, a in enumerate(assignments) if a == label])
        for label in sorted({a for a in assignments if a in pool.specialized})
    ]
    # per row, (voter name, validation F1, vote) in voting order
    ballots: list[list[tuple[str, float, int]]] = [[] for _ in range(len(X))]
    for label, model_set, rows in voters:
        for kind in KIND_ORDER:
            f1 = model_set.validation_f1[kind]
            for i, p in zip(rows, model_set.models[kind].predict(X[rows])):
                ballots[i].append((f"{label}:{kind.value}", f1, int(p)))
    return [_decide(ballot) for ballot in ballots]


def _decide(ballot: list[tuple[str, float, int]]) -> VoteOutcome:
    tally = {name: v for name, _, v in ballot}
    ones = sum(tally.values())
    zeros = len(tally) - ones
    if len(ballot) == len(KIND_ORDER):
        rule = "generic_only"
    else:
        rule = "majority" if ones != zeros else "weighted_f1"
    if ones != zeros:
        prediction = int(ones > zeros)
    else:
        weight_one = sum(f1 for _, f1, v in ballot if v == 1)
        weight_zero = sum(f1 for _, f1, v in ballot if v == 0)
        prediction = int(weight_one >= weight_zero)
    return VoteOutcome(prediction=prediction, tally=tally, rule_used=rule)


def evaluate_week(
    labels: list[int], assignments: list[str | None], outcomes: list[VoteOutcome]
) -> list[EvalRow]:
    """Metrics for generic kinds, each live specialized set, and voting, on
    the hold-out rows' labels, cluster assignments and vote outcomes. Each
    model's predictions are read from the tallies.
    """
    if not labels:
        raise ValidationError("cannot evaluate an empty hold-out set")
    y = np.array(labels, dtype=int)
    live = sorted({a for a, o in zip(assignments, outcomes) if o.rule_used != "generic_only"})
    groups = [("generic", "", GENERIC_SCOPE, list(range(len(y))))] + [
        ("specialized", label, label, [i for i, a in enumerate(assignments) if a == label])
        for label in live
    ]
    out = [
        EvalRow(
            scope=scope,
            cohort=cohort,
            kind=kind.value,
            metrics=compute_metrics(
                [outcomes[i].tally[f"{voter}:{kind.value}"] for i in rows], y[rows]
            ),
        )
        for scope, cohort, voter, rows in groups
        for kind in KIND_ORDER
    ]
    voting = compute_metrics([o.prediction for o in outcomes], y)
    out.append(EvalRow(scope="voting", cohort="", kind="ensemble", metrics=voting))
    return out


# ---------------------------------------------------------------- persistence


def _set_to_json(model_set: ModelSet) -> dict:
    return {
        "input_dim": model_set.input_dim,
        "validation_f1": {k.value: v for k, v in model_set.validation_f1.items()},
        "models": {k.value: model_to_json(m) for k, m in model_set.models.items()},
    }


def _set_from_json(doc: dict) -> ModelSet:
    input_dim = int(doc["input_dim"])
    models = {ModelKind(k): model_from_json(m) for k, m in doc["models"].items()}
    for model in models.values():
        model.check_input_dim(input_dim)
    return ModelSet(
        models=models,
        validation_f1={ModelKind(k): float(v) for k, v in doc["validation_f1"].items()},
        input_dim=input_dim,
    )


def pool_to_json(pool: ModelPool) -> dict:
    return {
        "generic": None if pool.generic is None else _set_to_json(pool.generic),
        "specialized": {
            label: _set_to_json(s) for label, s in sorted(pool.specialized.items())
        },
    }


def pool_from_json(doc: dict) -> ModelPool:
    return ModelPool(
        generic=None if doc["generic"] is None else _set_from_json(doc["generic"]),
        specialized={
            label: _set_from_json(s) for label, s in doc["specialized"].items()
        },
    )
