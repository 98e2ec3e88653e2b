"""Checkpoint files written the way the earlier checkpoint writer wrote them."""

import gzip
import json


def write_gzip(path, content) -> None:
    """Write ``content`` to ``path`` as gzip at level 9 with the file's name
    in the header and mtime 0, as `engine.save` once did. Bytes are written
    as they are, a str as UTF-8, anything else as its JSON text."""
    if isinstance(content, str):
        content = content.encode("utf-8")
    elif not isinstance(content, bytes):
        content = json.dumps(content).encode("utf-8")
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(content)


def older_layout(doc: dict) -> dict:
    """A copy of checkpoint ``doc`` as the earlier writer laid it out: the
    registry's ``prev_memberships`` as a sorted id list per cohort label,
    not a label or null per row of ``ids``, and no ``log_digests``."""
    doc = {key: value for key, value in doc.items() if key != "log_digests"}
    registry = dict(doc["registry"])
    cohorts: dict[str, list[str]] = {}
    for pid, label in zip(registry["ids"], registry["prev_memberships"]):
        if label is not None:
            cohorts.setdefault(label, []).append(pid)
    registry["prev_memberships"] = {label: sorted(ids) for label, ids in cohorts.items()}
    doc["registry"] = registry
    return doc
