"""The benchmark's layer tracer (``perfbench/tracer.py``) patches named
functions of ``amalgam_lab``; a renamed or removed target fails a traced
benchmark run.  This installs the tracer once over the loaded package, so
such a rename fails here instead, and runs each workload traced, so a broken
per-layer prediction fails here too."""

from __future__ import annotations

import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest

import amalgam_lab  # noqa: F401  (loads every module the tracer patches)
import amalgam_lab.cli  # noqa: F401
import amalgam_lab.jsonio  # noqa: F401

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


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


def _traced_run(name: str, seed: str, tmp_path, monkeypatch) -> dict:
    """Run one workload's argv once under the tracer, check its pinned
    outputs and per-layer predictions, and return its per-layer metrics as
    the benchmark's own ``per_layer`` reports them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))   # run.py imports its siblings by name
    added = ("child", "run", "tracer", "workloads")
    try:
        run = importlib.import_module("run")
        tracer_mod = importlib.import_module("tracer")
        workloads = importlib.import_module("workloads")
        workload = workloads.WORKLOADS[name]
        artifact = tmp_path / "artifact.json"
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            start = time.perf_counter()
            rc = amalgam_lab.cli.main([*workload.argv, "--seed", seed, "--emit", "json",
                                       "--output", str(artifact)])
            wall = time.perf_counter() - start
        finally:
            tracer.uninstall()
        assert rc == 0
        assert workloads.check_artifact(workload, json.loads(artifact.read_text())) == []
        metrics = run.per_layer({"stats": tracer.stats, "counts": tracer.counts}, wall, wall)
        assert workloads.check_predictions(workload, metrics) == []
        return metrics
    finally:
        for module in added:
            sys.modules.pop(module, None)


def test_traced_ends_f2_keeps_the_benchmark_predictions(tmp_path, monkeypatch):
    """The ends-f2 workload argv, run once under the tracer, with its metrics
    from the benchmark's own ``per_layer``.  A Cayley walk that stopped calling
    ``FundamentalGroup.multiply`` through the class would read 0
    ``word_metric_ball.elements`` and break a prediction."""
    metrics = _traced_run("ends-f2", "0", tmp_path, monkeypatch)
    # the walk forms each product once: about one new element per multiply
    assert metrics["fundgroup.word_metric_ball.new_per_multiply"]["value"] > 0.75


@pytest.mark.parametrize("name", ["amalgam-z2z2", "verifyk-sl2z"])
def test_traced_workload_keeps_the_benchmark_predictions(name, tmp_path, monkeypatch):
    """The other two workloads, traced the same way.  A change that zeroes a
    layer the benchmark predicts to run (say, ``wordlen`` forming no product
    on verifyk-sl2z) fails here before the benchmark sees it."""
    _traced_run(name, "1", tmp_path, monkeypatch)
