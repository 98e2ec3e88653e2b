"""Gzip files written the way `engine.save` once wrote its checkpoints."""

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

