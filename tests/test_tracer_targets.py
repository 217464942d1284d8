"""The benchmark's layer tracer (``perfbench/tracer.py``) patches named
functions of ``amalgam_lab``; a renamed or removed target fails a traced
benchmark run.  This installs the tracer once over the loaded package, so
such a rename fails here instead."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import amalgam_lab  # noqa: F401  (loads every module the tracer patches)
import amalgam_lab.cli  # noqa: F401
import amalgam_lab.jsonio  # noqa: F401

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_exists():
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()    # raises TracerError on a missing target
    finally:
        tracer.uninstall()
    from amalgam_lab.backends import GroupBackend
    assert not hasattr(GroupBackend.mul, "__wrapped__")
