#!/usr/bin/env python3
"""Time-to-verdict benchmark for the amalgam-lab CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src/``.
Workloads are defined in ``workloads.py``; ``README.md`` explains them and
every metric.

One run is a closed loop with one client: each sample is a fresh,
single-threaded ``child.py`` process that calls ``amalgam_lab.cli.main`` once,
and the next sample starts only after the previous one has exited.  Samples
are taken for ``--seconds`` seconds.  Every sample passes ``--seed`` N
unchanged to the CLI, so every sample of a run, however many fit in the
time, solves the same instance, and the same N gives the same inputs.
Each child runs under a wall-clock timeout and an
address-space cap set on the child only; a timeout, a cap kill, a wrong exit
code or a wrong verdict or invariant counts as a failed sample.

With ``--trace 0`` the end-to-end metrics are reported (medians over the
samples).  With ``--trace 1`` the loop runs for half the time as a baseline,
then one more sample runs with the layer tracer of ``tracer.py`` installed,
and the per-layer metrics of that sample are reported.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines before it are a human-readable report.  A run record
(machine, every sample with its calibration time and artifact sha256, and
the spans of a traced sample) is written under ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from child import ROOT, SRC, TRACER_FAILED
from tracer import SYLLABLE_BUCKETS, empty_stat
from workloads import BENCH_DIR, WORKLOADS, check_artifact, check_predictions

RUNS_DIR = ROOT / ".perfbench_runs"
CHILD = BENCH_DIR / "child.py"

TOTAL_BUDGET_S = 170.0            # every run, set-up included, ends within 180 s
SAMPLE_TIMEOUT_S = 60.0
TRACED_TIMEOUT_S = 80.0
MEMORY_CAP_BYTES = 2 << 30        # address space of one child
SETUP_REPEATS = 9
TRACE_BASELINE_SHARE = 0.5        # share of --seconds spent on untraced samples in a traced run


class BenchError(Exception):
    """The benchmark cannot produce a result (no program, broken tracer,
    no sample measured)."""


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


# --- machine and host noise ----------------------------------------------------


def machine_record() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu_model": model,
            "nproc": len(os.sched_getaffinity(0))}


def calibrate() -> float:
    """Time a fixed pure-Python loop; a slower host shows here first."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


# --- child processes -----------------------------------------------------------


def _limit_child():
    """Runs in the child between fork and exec: cap its address space only."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def _run_child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run child.py to completion; subprocess.run kills it on timeout."""
    return subprocess.run([sys.executable, str(CHILD), *args], cwd=ROOT, env=_child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=timeout, preexec_fn=_limit_child)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def measure_setup(workload, deadline: Deadline) -> list[float]:
    """setup_s samples, each in a fresh interpreter; a discarded first run
    compiles the bytecode so that every sample sees the same warm files."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = _run_child(["setup", workload.input], timeout=min(30.0, deadline.left()))
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        if i > 0:
            times.append(_last_json(proc.stdout)["setup_s"])
    return times


def run_sample(workload, seed: int, index: int, tmp: Path, timeout: float,
               trace_path: Path | None = None) -> dict:
    """One CLI call in a fresh process, checked against the pinned outputs."""
    artifact = tmp / "artifact.json"
    artifact.unlink(missing_ok=True)
    argv = [*workload.argv, "--seed", str(seed), "--emit", "json", "--output", str(artifact)]
    args = ["run"]
    if trace_path is not None:
        args += ["--trace", str(trace_path)]
    sample = {"index": index, "traced": trace_path is not None,
              "calibration_s": calibrate(), "problems": []}
    start = time.perf_counter()
    try:
        proc = _run_child([*args, "--", *argv], timeout=max(timeout, 0.0))
    except subprocess.TimeoutExpired:
        sample["elapsed_s"] = time.perf_counter() - start
        sample["problems"].append(f"timeout after {timeout:.0f} s")
        return sample
    sample["elapsed_s"] = time.perf_counter() - start
    if trace_path is not None and proc.returncode == TRACER_FAILED:
        raise BenchError(f"tracer could not be installed: {proc.stderr.strip()}")
    if proc.returncode != 0:
        sample["problems"].append(f"child exit {proc.returncode} (memory cap or crash): "
                                  f"{proc.stderr.strip()[-300:]}")
        return sample
    sample.update(_last_json(proc.stdout))
    if sample["rc"] != 0:
        sample["problems"].append(f"CLI exit code {sample['rc']}, expected 0")
    try:
        data = artifact.read_bytes()
    except OSError:
        sample["problems"].append("no artifact written")
        return sample
    sample["sha256"] = hashlib.sha256(data).hexdigest()
    sample["problems"] += check_artifact(workload, json.loads(data))
    return sample


def closed_loop(workload, seed: int, seconds: float, tmp: Path,
                deadline: Deadline) -> list[dict]:
    """Samples back to back; a sample starts only if the typical sample
    still fits in ``seconds``, so at least one always runs."""
    samples = []
    start = time.perf_counter()
    while True:
        timeout = min(SAMPLE_TIMEOUT_S, deadline.left())
        sample = run_sample(workload, seed, len(samples), tmp, timeout)
        samples.append(sample)
        _print_sample(sample)
        typical = statistics.median(s["elapsed_s"] for s in samples)
        if time.perf_counter() - start + typical > seconds or deadline.left() < 2 * typical:
            return samples


def _print_sample(s: dict):
    if "wall_s" in s:
        line = (f"  sample {s['index']:2d}: wall {s['wall_s']:.3f} s, "
                f"cpu {s['cpu_s']:.3f} s, peak RSS {s['peak_rss_mb']:.1f} MB, "
                f"calibration {s['calibration_s'] * 1000:.1f} ms")
    else:
        line = f"  sample {s['index']:2d}: no measurement"
    if s.get("sha256"):
        line += f", sha256 {s['sha256'][:16]}"
    if s["traced"]:
        line += " [traced]"
    print(line + ("" if not s["problems"] else "  FAILED: " + "; ".join(s["problems"])))


# --- metrics -------------------------------------------------------------------


def _tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return "no percentile has ten samples beyond it"
    k = n - 11  # sorted index with exactly ten samples above
    return f"p{100 * (k + 1) / n:.0f} {sorted(values)[k]:.4f} s"


def end_to_end(samples: list[dict], setup_times: list[float]) -> dict:
    good = [s for s in samples if not s["problems"]]
    timed = good or [s for s in samples if "wall_s" in s]
    if not timed:
        raise BenchError("no sample produced a measurement: "
                         + "; ".join(p for s in samples for p in s["problems"]))
    wall = [s["wall_s"] for s in timed]
    cpu = [s["cpu_s"] for s in timed]
    rss = [s["peak_rss_mb"] for s in timed]
    metrics = {
        "wall_s": {"value": statistics.median(wall), "unit": "s"},
        "cpu_s": {"value": statistics.median(cpu), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }
    failed = len(samples) - len(good)
    print(f"wall_s       median {metrics['wall_s']['value']:.4f} s, {_tail(wall)}, "
          f"n={len(wall)} samples")
    print(f"cpu_s        median {metrics['cpu_s']['value']:.4f} s")
    print(f"setup_s      median {metrics['setup_s']['value']:.4f} s over {len(setup_times)} "
          f"fresh interpreters")
    print(f"peak_rss_mb  median {metrics['peak_rss_mb']['value']:.1f} MB, max {max(rss):.1f} MB")
    print(f"failed_share {failed / len(samples):.4f} ({failed} of {len(samples)} samples)")
    return metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(trace: dict, traced_wall: float, baseline_wall: float) -> dict:
    """Per-layer metrics from the traced sample (see README.md)."""
    def st(name: str) -> dict:  # a layer that was never called has no entry
        return trace["stats"].get(name) or empty_stat()

    rc, mul, inv = st("separation.r_components"), st("fundgroup.multiply"), st("fundgroup.invert")
    dist, wl, wmb = st("fundgroup.dist"), st("fundgroup.wordlen"), st("fundgroup.word_metric_ball")
    tb = st("bass_serre.TreeBall")
    out = {
        "separation.r_components.calls": (rc["calls"], "count"),
        "separation.r_components.points": (rc["points"], "count"),
        "separation.r_components.self_s": (rc["self_s"], "s"),
        "separation.r_components.multiplies_per_point": (_ratio(rc["multiplies"], rc["points"]), "ratio"),
        "fundgroup.multiply.calls": (mul["calls"], "count"),
        "fundgroup.multiply.self_s": (mul["self_s"], "s"),
    }
    for _, label in SYLLABLE_BUCKETS:
        calls, secs = mul["buckets"][label]
        out[f"fundgroup.multiply.us_per_call.{label}"] = (_ratio(secs * 1e6, calls), "us")
    out.update({
        "fundgroup.invert.calls": (inv["calls"], "count"),
        "fundgroup.invert.self_s": (inv["self_s"], "s"),
        "fundgroup.dist.calls": (dist["calls"], "count"),
        "fundgroup.dist.incl_s": (dist["incl_s"], "s"),
        "fundgroup.wordlen.calls": (wl["calls"], "count"),
        "fundgroup.wordlen.incl_s": (wl["incl_s"], "s"),
        "fundgroup.wordlen.multiplies": (wl["multiplies"], "count"),
        "fundgroup.wordlen.max_value": (wl["max_value"], "count"),
        "fundgroup.word_metric_ball.incl_s": (wmb["incl_s"], "s"),
        "fundgroup.word_metric_ball.elements": (wmb["elements"], "count"),
        "fundgroup.word_metric_ball.us_per_element": (_ratio(wmb["incl_s"] * 1e6, wmb["elements"]), "us"),
        "fundgroup.word_metric_ball.new_per_multiply": (_ratio(wmb["elements"], wmb["multiplies"]), "ratio"),
    })
    for name in ("separation.thicken", "separation.set_distance",
                 "separation.coset_elements_in_ball"):
        out[f"{name}.calls"] = (st(name)["calls"], "count")
        out[f"{name}.incl_s"] = (st(name)["incl_s"], "s")
    out.update({
        "bass_serre.TreeBall.incl_s": (tb["incl_s"], "s"),
        "bass_serre.TreeBall.vertices": (tb["vertices"], "count"),
        "bass_serre.TreeBall.us_per_vertex": (_ratio(tb["incl_s"] * 1e6, tb["vertices"]), "us"),
        "bass_serre.TreeBall.multiplies": (tb["multiplies"], "count"),
        "boundary.boundary_approx.self_s": (st("boundary.boundary_approx")["self_s"], "s"),
        "boundary.limit_set_family.incl_s": (st("boundary.limit_set_family")["incl_s"], "s"),
        "boundary.amalgam_check.self_s": (st("boundary.amalgam_check")["self_s"], "s"),
        "boundary.cantor_check.incl_s": (st("boundary.cantor_check")["incl_s"], "s"),
        "boundary.branch_density_check.incl_s": (st("boundary.branch_density_check")["incl_s"], "s"),
        "boundary.BoundaryApprox.basis_members.calls":
            (st("boundary.BoundaryApprox.basis_members")["calls"], "count"),
        "jsonio.dumps.self_s": (st("jsonio.dumps")["self_s"], "s"),
        "jsonio.dumps.bytes": (st("jsonio.dumps")["bytes"], "count"),
        "dsl.parse_gog.s": (st("dsl.parse_gog")["incl_s"], "s"),
        "gog.spanning_tree.s": (st("gog.spanning_tree")["incl_s"], "s"),
        "fundgroup.generating_set.s": (st("fundgroup.generating_set")["incl_s"], "s"),
        "groups.FiniteGroup.mul.calls": (trace["counts"]["groups.FiniteGroup.mul"], "count"),
        "backends.GroupBackend.mul.calls": (trace["counts"]["backends.GroupBackend.mul"], "count"),
        "trace.overhead_s": (traced_wall - baseline_wall, "s"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


# --- one run ---------------------------------------------------------------------


def check_input(workload, seed: int) -> list[str]:
    if not workload.sl2z_input:
        return []
    sys.path.insert(0, str(SRC))
    from amalgam_lab import FundamentalGroup, parse_gog, spanning_tree
    from oracle import check_sl2z

    gog = parse_gog(Path(workload.input).read_text())
    return check_sl2z(FundamentalGroup(gog, spanning_tree(gog)), seed)


def bench(args) -> dict:
    if not (SRC / "amalgam_lab" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'amalgam_lab'} is missing")
    deadline = Deadline(TOTAL_BUDGET_S)
    workload = WORKLOADS[args.workload]
    RUNS_DIR.mkdir(exist_ok=True)
    machine = machine_record()
    print(f"workload {workload.name}: {' '.join(workload.argv)}")
    print(f"machine: Python {machine['python']}, {machine['cpu_model']}, nproc {machine['nproc']}")

    problems = check_input(workload, args.seed)
    if workload.sl2z_input:
        print(f"input check against SL(2,Z) matrices: {'ok' if not problems else problems}")
    setup_times = measure_setup(workload, deadline)

    run_id = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    trace_path = RUNS_DIR / f"{run_id}-spans.json"
    with tempfile.TemporaryDirectory(dir=RUNS_DIR) as tmp:
        seconds = args.seconds * (TRACE_BASELINE_SHARE if args.trace else 1.0)
        samples = closed_loop(workload, args.seed, seconds, Path(tmp), deadline)
        metrics = end_to_end(samples, setup_times)
        if args.trace:
            traced = run_sample(workload, args.seed, 0, Path(tmp),
                                min(TRACED_TIMEOUT_S, deadline.left()), trace_path)
            _print_sample(traced)
            if "wall_s" not in traced:
                raise BenchError("the traced sample produced no trace: "
                                 + "; ".join(traced["problems"]))
            trace = json.loads(trace_path.read_text())
            metrics = per_layer(trace, traced["wall_s"], metrics["wall_s"]["value"])
            traced["problems"] += check_predictions(workload, metrics)
            for name, m in metrics.items():
                print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
            samples.append(traced)
            if traced["problems"]:
                print("traced sample FAILED: " + "; ".join(traced["problems"]))

    failed = sum(1 for s in samples if s["problems"])
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "machine": machine, "input_problems": problems, "setup_s": setup_times,
              "samples": samples, "metrics": metrics}
    (RUNS_DIR / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")
    return {"correct": not problems and failed == 0,
            "attempted": len(samples), "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="Time-to-verdict benchmark for amalgam-lab.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result = bench(args)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
