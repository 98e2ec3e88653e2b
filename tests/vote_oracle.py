"""The reference vote, one row at a time, kept to test `ensemble.vote`'s
columns against.

`vote_rows` builds each row's ballot, one (voter name, validation F1, vote)
triple per model in voting order: the generic set's kinds, then those of
the row's cohort set, if it has one. `decide` reads a row's prediction and
rule from its ballot, summing each side's F1 weights with Python's `sum`.
"""

from cohortsense.ensemble import GENERIC_SCOPE
from cohortsense.learners.base import KIND_ORDER


def decide(ballot: list[tuple[str, float, int]]) -> tuple[int, str, dict[str, int]]:
    """A row's prediction, rule and tally (voter name -> vote)."""
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
    return prediction, rule, tally


def vote_rows(pool, X, assignments) -> list[tuple[int, str, dict[str, int]]]:
    """`decide` of each row of ``X``, each model predicting the row alone."""
    out = []
    for x, label in zip(X, assignments):
        voters = [(GENERIC_SCOPE, pool.generic)]
        if label in pool.specialized:
            voters.append((label, pool.specialized[label]))
        ballot = [
            (f"{name}:{kind.value}", model_set.validation_f1[kind],
             int(model_set.models[kind].predict(x[None, :])[0]))
            for name, model_set in voters
            for kind in KIND_ORDER
        ]
        out.append(decide(ballot))
    return out
