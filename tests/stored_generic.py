"""Checkpoints as schema version 3 laid them out: with the generic set.

Version 4 leaves the generic set out, since every step refits it before it
votes. The checkpoint digests pinned before that change hash a document
that holds it, so a pin puts the run's in-memory generic set back with
`version_3_doc` and still checks the same bytes.
"""

from cohortsense import cli
from cohortsense.ensemble import _set_to_json


def version_3_doc(doc: dict, generic) -> dict:
    """``doc`` as version 3 wrote it, its pool holding ``generic``: the
    in-memory generic set of the run that saved ``doc``, or None."""
    pool = dict(doc["pool"], generic=None if generic is None else _set_to_json(generic))
    return dict(doc, pool=pool, schema_version=3)


def final_states(monkeypatch) -> list:
    """A list to which each later `cli.run_replay` call appends the state
    it ends with, so that a test of the CLI can read the in-memory generic
    set of a run whose checkpoint does not hold it."""
    states, run_replay = [], cli.run_replay

    def replay(*args, **kwargs):
        reports, state = run_replay(*args, **kwargs)
        states.append(state)
        return reports, state

    monkeypatch.setattr(cli, "run_replay", replay)
    return states
