"""Golden artifacts: the sha256 of every artifact in a fixed CLI matrix.

``test_fixed_seed_byte_identical`` only compares two runs of the same code
with each other; this test compares the bytes against digests frozen in
``tests/golden/digests.json``, so a change to the normal-form convention,
to the BFS discovery order or to a sampled witness set is caught.

A refactor must keep every digest.  A change that alters artifacts on
purpose regenerates them with ``PYTHONPATH=src python tests/test_golden.py``
and states the reason in its change notes.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from amalgam_lab.cli import main
from amalgam_lab.corpus import NAMES

from conftest import SL2Z

GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"

WORDS = {
    "z2z2": [["x1"], ["x1", "x1"], ["x1", "x1", "x1"]],
    "sl2z": [["a", "v2.a"], ["a", "v2.a", "a", "v2.a"],
             ["a", "v2.a", "a", "v2.a", "a", "v2.a"]],
}


def _cases() -> dict[str, list[str]]:
    """Case id -> argv; ``{sl2z}`` and ``{words:NAME}`` are filled in at run time."""
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
    for name, spec in (("dinf", "corpus:dinf"), ("z2z3", "corpus:z2z3"),
                       ("zxz2", "corpus:zxz2"), ("sl2z", "{sl2z}")):
        cases[f"separate-{name}"] = ["separate", spec, "--radius", "6", "--R", "1",
                                     "--samples", "8", "--seed", "3"]
        cases[f"verify-k-{name}"] = ["verify-k", spec, "--radius", "6", "--edges", "4",
                                     "--seed", "3"]
    # R > 1 takes the labelling's ball(R) shifts, not the generators
    for name, spec in (("dinf", "corpus:dinf"), ("z2z3", "corpus:z2z3"), ("sl2z", "{sl2z}")):
        cases[f"separate-{name}-R2"] = ["separate", spec, "--radius", "6", "--R", "2",
                                        "--samples", "8", "--seed", "3"]
    for name in ("dinf", "z2z3", "f2", "zxz2", "zz"):
        cases[f"ends-{name}"] = ["ends", f"corpus:{name}", "--radii", "2,3",
                                 "--margin", "2"]
    cases["ends-sl2z"] = ["ends", "{sl2z}", "--radii", "2,3", "--margin", "2"]
    for name in ("z2z2", "zxz2", "z2z3"):
        cases[f"amalgam-check-{name}"] = ["amalgam-check", f"corpus:{name}", "--depth", "4",
                                          "--seed", "7", "--samples", "5"]
    cases["classify-z2z2"] = ["classify", "corpus:z2z2", "--depth", "3",
                              "--words-json", "{words:z2z2}"]
    cases["classify-sl2z"] = ["classify", "{sl2z}", "--depth", "3",
                              "--words-json", "{words:sl2z}"]
    return cases


def run_matrix(workdir: Path) -> dict[str, str]:
    """Case id -> "exit-code sha256" of the artifact it writes."""
    fill = {"{sl2z}": str(workdir / "sl2z.gog")}
    (workdir / "sl2z.gog").write_text(SL2Z)
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
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(digests)} digests to {GOLDEN}\n")
