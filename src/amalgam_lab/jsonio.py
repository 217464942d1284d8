"""Stable JSON emission and re-loading of CLI artifacts.

Every payload is built by :func:`artifact`, the one place that writes the
envelope ``schema_version`` and ``kind``; serialization sorts keys and
contains no timestamps, so identical runs are byte-identical.  Run metadata
(timestamp, argv) goes to a sidecar ``<output>.log`` only.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SCHEMA_VERSION = 1


def artifact(kind: str, fields: dict) -> dict:
    """The payload of a ``kind`` artifact: the envelope, then ``fields``."""
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **fields}


def dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def emit(text: str, output: str | None, argv: list[str] | None = None):
    """Write an artifact to a file or stdout; log run metadata to a sidecar."""
    if output is None:
        sys.stdout.write(text)
        return
    path = Path(output)
    path.write_text(text)
    if argv is not None:
        stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
        with open(f"{output}.log", "a") as log:
            log.write(f"{stamp} {' '.join(argv)}\n")


def read_json(path: str):
    """The JSON value in a file; a parse error names the path, line and column."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None


def load_artifact(path: str) -> dict:
    data = read_json(path)
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError(f"{path} is not an amalgam-lab artifact")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema_version {data.get('schema_version')!r} in {path}")
    return data
