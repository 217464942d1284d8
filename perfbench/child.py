"""One measured process of the benchmark; ``run.py`` starts a fresh one per sample.

    python3 perfbench/child.py setup INPUT
        Time importing amalgam_lab, parse_gog, spanning_tree and
        FundamentalGroup(...).generating_set() for INPUT (a .gog path or
        corpus:NAME), measured inside this fresh interpreter.

    python3 perfbench/child.py run [--trace PATH] -- ARGV...
        Time amalgam_lab.cli.main(ARGV) from call to return (wall and process
        CPU) and report the peak RSS of this process.  With --trace, the
        layer tracer is installed first and its spans are written to PATH.

The last line of stdout is one JSON object with the measurements.  The
program is imported from ``src/`` of the checkout this file lives in, never
from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

TRACER_FAILED = 3  # exit code when a traced target is missing; run.py stops on it


def _import_from_checkout():
    sys.path.insert(0, str(SRC))
    import amalgam_lab

    if Path(amalgam_lab.__file__).resolve().parent != SRC / "amalgam_lab":
        raise SystemExit(f"amalgam_lab was imported from {amalgam_lab.__file__}, not {SRC}")
    return amalgam_lab


def setup(spec: str) -> dict:
    start = time.perf_counter()
    lab = _import_from_checkout()
    from amalgam_lab import corpus

    if spec.startswith("corpus:"):
        text = corpus.text(spec.split(":", 1)[1])
    else:
        text = Path(spec).read_text()
    gog = lab.parse_gog(text)
    sd = lab.spanning_tree(gog)
    lab.FundamentalGroup(gog, sd).generating_set()
    return {"setup_s": time.perf_counter() - start}


def run(argv: list[str], trace_path: str | None) -> dict:
    _import_from_checkout()
    from amalgam_lab.cli import main

    tracer = None
    if trace_path is not None:
        from tracer import Tracer, TracerError

        tracer = Tracer()
        try:
            tracer.install()
        except TracerError as exc:
            sys.stderr.write(f"tracer: {exc}\n")
            raise SystemExit(TRACER_FAILED)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    rc = main(argv)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(trace_path)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"rc": rc, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_kb / 1024}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("input")
    p = sub.add_parser("run")
    p.add_argument("--trace", default=None, metavar="PATH")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "setup":
        record = setup(args.input)
    else:
        argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        record = run(argv, args.trace)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
