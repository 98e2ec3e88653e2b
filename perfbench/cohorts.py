"""Workload inputs: the default study cohort, scaled and thinned copies of it.

Scaling never touches the program: the benchmark rewrites the plan that
`build_default_plan()` returns. Each kept participant is repeated `copies`
times under a suffixed id (P001 -> P001s0, P001s1, ...), so every copy
follows its original's group path and the group dynamics stay the same;
the lonely count scales with the participant count.
"""

from __future__ import annotations

from dataclasses import dataclass

from cohortsense.core import EngineConfig, LearnerConfig
from cohortsense.synthgen import CohortPlan, build_default_plan

# Every workload replays the same cohort on every run, whatever --seed the
# caller passes: the checks (cohort counts, ARI, identical digests) are
# statements about these fixed inputs.
COHORT_SEED = 42

# Cohorts alive in each week of the default study: three stable groups, a
# fourth emerging in week 5, reabsorbed in week 8 and back in week 9.
STUDY_COHORT_COUNTS = (3, 3, 3, 3, 4, 4, 4, 3, 4, 4)

# Refit dominates a default replay; the scaled workloads lighten the four
# learners so that clustering and preprocessing, which grow fastest with
# the cohort, carry the time instead.
LIGHT_CONFIG = EngineConfig(
    cv_folds=3, learners=LearnerConfig(forest_trees=10, gbt_rounds=10)
)


@dataclass(frozen=True)
class Workload:
    name: str
    copies: int  # each default participant appears this many times
    keep: int  # keep every keep-th default participant (1 = all)
    weeks: int  # replay weeks 1..weeks of the ten-week study
    config: EngineConfig
    resume: bool  # load the previous week's checkpoint before each week
    round_s: float  # reference seconds of one replay; a run makes --seconds // round_s, at least 1
    cohort_counts: tuple[int, ...] | None = None  # expected cohorts per week

    def plan(self) -> CohortPlan:
        return scaled_plan(self.copies, self.keep)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "study-replay", 1, 1, 4, EngineConfig(), resume=False, round_s=14,
            cohort_counts=STUDY_COHORT_COUNTS[:4],
        ),
        Workload("cohort-scale", 2, 1, 4, LIGHT_CONFIG, resume=False, round_s=6.5),
        Workload("resume-weekly", 2, 1, 4, LIGHT_CONFIG, resume=True, round_s=6.5),
    )
}


def scaled_plan(copies: int = 1, keep: int = 1) -> CohortPlan:
    """The default plan with every keep-th participant repeated `copies` times."""
    base = build_default_plan()
    if copies == 1 and keep == 1:
        return base

    def rename(members: frozenset[str]) -> frozenset[str]:
        return frozenset(
            f"{pid}s{j}"
            for pid in members
            if int(pid[1:]) % keep == 0
            for j in range(copies)
        )

    membership = {
        week: {g: rename(m) for g, m in groups.items() if rename(m)}
        for week, groups in base.weekly_group_membership.items()
    }
    total = len(frozenset().union(*membership[min(membership)].values()))
    return CohortPlan(
        total_participants=total,
        lonely_count=base.lonely_count * total // base.total_participants,
        weekly_group_membership=membership,
    )


def weeks_of(plan: CohortPlan, weeks) -> CohortPlan:
    """The plan restricted to the given weeks."""
    return CohortPlan(
        total_participants=plan.total_participants,
        lonely_count=plan.lonely_count,
        weekly_group_membership={
            w: m for w, m in plan.weekly_group_membership.items() if w in weeks
        },
    )


def generation_plan(plan: CohortPlan, weeks: int) -> CohortPlan:
    """Plan for generating weeks 1..weeks exactly as the full study has them.

    The generator draws scores and traits from the final week's rosters, so
    the final week stays in the plan; its batch is dropped after generation.
    """
    return weeks_of(plan, {*range(1, weeks + 1), max(plan.weeks())})
