"""Golden artifacts: the sha256 of every artifact in a fixed CLI matrix.

``test_fixed_seed_byte_identical`` only compares two runs of the same code
with each other; this test compares the bytes against digests frozen in
``tests/golden/digests.json``, so a change to the normal-form convention,
to the BFS discovery order or to a witness set is caught.

A refactor must keep every digest.  A change that alters artifacts on
purpose regenerates them with ``PYTHONPATH=src python tests/test_golden.py``
and states the reason in its change notes.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from amalgam_lab.cli import main
from amalgam_lab.corpus import NAMES

from conftest import DEAD_ENDS, REV, SEGMENT, SL2Z, Z2_PATH

GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

WORDS = {
    "z2z2": [["x1"], ["x1", "x1"], ["x1", "x1", "x1"]],
    "sl2z": [["a", "v2.a"], ["a", "v2.a", "a", "v2.a"],
             ["a", "v2.a", "a", "v2.a", "a", "v2.a"]],
}


def _cases() -> dict[str, list[str]]:
    """Case id -> argv; ``{sl2z}``, ``{dead-ends}``, ``{segment}``, ``{rev}``,
    ``{z2-path}`` and ``{words:NAME}`` are filled in at run time."""
    cases: dict[str, list[str]] = {}
    inputs = [(name, f"corpus:{name}") for name in NAMES] + [("sl2z", "{sl2z}")]
    for name, spec in inputs:
        cases[f"validate-{name}"] = ["validate", spec, "--emit", "json"]
        cases[f"collapse-{name}"] = ["collapse", spec, "--emit", "json"]
        for fmt in ("json", "gap"):
            cases[f"presentation-{name}-{fmt}"] = ["presentation", spec, "--emit", fmt]
        for fmt in ("json", "dot"):
            cases[f"tree-ball-{name}-{fmt}"] = ["tree-ball", spec, "--radius", "3",
                                                "--emit", fmt]
            cases[f"cayley-ball-{name}-{fmt}"] = ["cayley-ball", spec, "--radius", "3",
                                                  "--emit", fmt]
        cases[f"boundary-{name}"] = ["boundary", spec, "--depth", "4"]
    # radius 0 holds no identity edge, so the artifact has no tiling tree
    cases["tree-ball-dinf-r0"] = ["tree-ball", "corpus:dinf", "--radius", "0", "--emit", "json"]
    cases["boundary-z2z2-d6"] = ["boundary", "corpus:z2z2", "--depth", "6"]
    # depth 5 of DEAD_ENDS has empty cells: edges into v3 cosets lie on no branch
    cases["boundary-dead-ends"] = ["boundary", "{dead-ends}", "--depth", "5"]
    for name, spec in (("dinf", "corpus:dinf"), ("z2z3", "corpus:z2z3"),
                       ("zxz2", "corpus:zxz2"), ("sl2z", "{sl2z}")):
        cases[f"separate-{name}"] = ["separate", spec, "--radius", "6", "--R", "1"]
        cases[f"verify-k-{name}"] = ["verify-k", spec, "--radius", "6"]
        # a probe bound of 1 leaves far vertices, so the probe loop runs
        cases[f"verify-k-{name}-probe"] = ["verify-k", spec, "--radius", "6", "--R-probe", "1"]
    # f2 has two edge pairs, so two identity edges
    cases["separate-f2"] = ["separate", "corpus:f2", "--radius", "6", "--R", "1"]
    # two edge pairs each: both of Z2_PATH's apply, and DEAD_ENDS's e2 has a
    # side with no eligible point
    for name in ("z2-path", "dead-ends"):
        spec = f"{{{name}}}"
        cases[f"verify-k-{name}"] = ["verify-k", spec, "--radius", "6"]
        cases[f"verify-k-{name}-probe"] = ["verify-k", spec, "--radius", "6", "--R-probe", "1"]
        cases[f"separate-{name}"] = ["separate", spec, "--radius", "6", "--R", "1"]
        cases[f"separate-{name}-R2"] = ["separate", spec, "--radius", "6", "--R", "2"]
    # R > 1 takes the labelling's ball(R) shifts, not the generators
    for name, spec in (("dinf", "corpus:dinf"), ("z2z3", "corpus:z2z3"), ("sl2z", "{sl2z}"),
                       ("f2", "corpus:f2")):
        cases[f"separate-{name}-R2"] = ["separate", spec, "--radius", "6", "--R", "2"]
    for name in ("dinf", "z2z3", "f2", "zxz2", "zz"):
        cases[f"ends-{name}"] = ["ends", f"corpus:{name}", "--radii", "2,3",
                                 "--margin", "2"]
    cases["ends-sl2z"] = ["ends", "{sl2z}", "--radii", "2,3", "--margin", "2"]
    # dinf, f2 and zz reach the Cantor-fail witnesses and the not_applicable
    # density path, which the three factor-rich inputs never do
    for name in ("z2z2", "zxz2", "z2z3", "dinf", "f2", "zz"):
        cases[f"amalgam-check-{name}"] = ["amalgam-check", f"corpus:{name}", "--depth", "4",
                                          "--seed", "7", "--samples", "5"]
    # the Cantor "dead end" witnesses
    cases["amalgam-check-dead-ends"] = ["amalgam-check", "{dead-ends}", "--depth", "4",
                                        "--seed", "7", "--samples", "5"]
    # many (a5) samples at a depth where the family has hundreds of members
    for name in ("z2z2", "zxz2"):
        cases[f"amalgam-check-{name}-d6"] = ["amalgam-check", f"corpus:{name}", "--depth", "6",
                                             "--seed", "5", "--samples", "60"]
    for fmt in ("json", "text"):
        cases[f"collapse-segment-e1-{fmt}"] = ["collapse", "{segment}", "--edge", "e1",
                                               "--emit", fmt]
        # only the reverse orientation of REV's edge collapses
        cases[f"collapse-rev-~e1-{fmt}"] = ["collapse", "{rev}", "--edge", "~e1", "--emit", fmt]
    cases["classify-z2z2"] = ["classify", "corpus:z2z2", "--depth", "3",
                              "--words-json", "{words:z2z2}"]
    cases["classify-sl2z"] = ["classify", "{sl2z}", "--depth", "3",
                              "--words-json", "{words:sl2z}"]
    # the benchmark's workloads, each on its own input file
    for name, workload in _bench_workloads().items():
        cases[f"bench-{name}"] = [*workload.argv, "--seed", "1", "--emit", "json"]
    return cases


def _bench_workloads() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.WORKLOADS


def run_matrix(workdir: Path) -> dict[str, str]:
    """Case id -> "exit-code sha256" of the artifact it writes."""
    fill = {}
    for name, dsl in (("sl2z", SL2Z), ("dead-ends", DEAD_ENDS), ("segment", SEGMENT),
                      ("rev", REV), ("z2-path", Z2_PATH)):
        (workdir / f"{name}.gog").write_text(dsl)
        fill[f"{{{name}}}"] = str(workdir / f"{name}.gog")
    for name, words in WORDS.items():
        path = workdir / f"words-{name}.json"
        path.write_text(json.dumps({"words": words}))
        fill[f"{{words:{name}}}"] = str(path)
    out = {}
    for case, argv in _cases().items():
        artifact = workdir / f"{case}.out"
        code = main([fill.get(a, a) for a in argv] + ["--output", str(artifact)])
        digest = hashlib.sha256(artifact.read_bytes()).hexdigest() if artifact.exists() else "-"
        out[case] = f"{code} {digest}"
    return out


def test_golden_artifacts(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    assert run_matrix(tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = run_matrix(Path(tmp))
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for label, ids in (("added", digests.keys() - old.keys()),
                       ("changed", {k for k in digests.keys() & old.keys()
                                    if digests[k] != old[k]}),
                       ("dropped", old.keys() - digests.keys())):
        sys.stdout.write(f"{label} {len(ids)}: {' '.join(sorted(ids)) or '-'}\n")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(digests)} digests to {GOLDEN}\n")
