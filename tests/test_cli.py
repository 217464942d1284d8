from __future__ import annotations

import json

import pytest

from amalgam_lab.cli import main
from amalgam_lab.corpus import path as corpus_path
from amalgam_lab.dsl import gog_from_json, gog_to_json, parse_gog

from conftest import GOG_TEXTS


def run(args, capsys=None):
    code = main(args)
    return code


def test_validate_text(capsys):
    assert main(["validate", str(corpus_path("dinf"))]) == 0
    out = capsys.readouterr().out
    assert "SimplyElementary" in out and "vertices: 2" in out


def test_validate_corpus_scheme(capsys):
    assert main(["validate", "corpus:f2", "--emit", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "graph_of_groups"
    assert data["classification"]["verdict"] == "NonElementary"


def test_validate_round_trip_from_json(tmp_path, capsys):
    out1 = tmp_path / "gog.json"
    assert main(["validate", "corpus:dinf", "--emit", "json",
                 "--output", str(out1)]) == 0
    assert main(["validate", str(out1), "--from", "json", "--emit", "json"]) == 0
    reloaded = json.loads(capsys.readouterr().out)
    assert reloaded == json.loads(out1.read_text())


@pytest.mark.parametrize("name", GOG_TEXTS)
def test_graph_of_groups_json_round_trip(name, tmp_path):
    src, out, back = tmp_path / "in.gog", tmp_path / "out.json", tmp_path / "back.json"
    src.write_text(GOG_TEXTS[name])
    assert main(["validate", str(src), "--emit", "json", "--output", str(out)]) == 0
    assert main(["validate", str(out), "--from", "json", "--emit", "json",
                 "--output", str(back)]) == 0
    assert back.read_bytes() == out.read_bytes()
    data = gog_to_json(parse_gog(GOG_TEXTS[name]))
    assert gog_to_json(gog_from_json(data)) == data


def test_presentation_json(capsys):
    assert main(["presentation", "corpus:dinf", "--emit", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["generators"] == ["a", "b"]
    assert sorted(data["relator_words"]) == ["a*a", "b*b"]


def test_collapse_decide(capsys):
    assert main(["collapse", "corpus:z2z3", "--emit", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "NonElementary"


def test_tree_ball_dot(capsys):
    assert main(["tree-ball", "corpus:dinf", "--radius", "2", "--emit", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph tree_ball {") and "v1:" in out


def test_cayley_ball_json(capsys):
    assert main(["cayley-ball", "corpus:dinf", "--radius", "3",
                 "--emit", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["size"] == 7
    assert data["layer_sizes"] == [1, 2, 2, 2]


def test_separate_passes(capsys):
    assert main(["separate", "corpus:dinf", "--radius", "8", "--R", "1",
                 "--samples", "10", "--seed", "5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "holds"


def test_verify_k_passes(capsys):
    assert main(["verify-k", "corpus:dinf", "--radius", "10",
                 "--edges", "5", "--seed", "5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "holds"
    assert data["details"]["worst_R0"] <= data["details"]["diam_I_3/2"]


def test_ends_json(capsys):
    assert main(["ends", "corpus:f2", "--radii", "3,5", "--margin", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "infinity-growing"


def test_ends_inconclusive_exit_2(capsys):
    assert main(["ends", "corpus:zz", "--radii", "2", "--margin", "0"]) == 2
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "inconclusive"


def test_boundary_json(capsys):
    assert main(["boundary", "corpus:dinf", "--depth", "4", "--emit", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["branch_count"] == 2


def test_amalgam_check_passes(capsys):
    assert main(["amalgam-check", "corpus:z2z2", "--depth", "5", "--seed", "7"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    assert data["branch_density"]["status"] == "pass"


def test_amalgam_check_depth_error_exit_1(capsys):
    assert main(["amalgam-check", "corpus:z2z2", "--depth", "3"]) == 1


def test_classify_words(tmp_path, capsys):
    words = tmp_path / "words.json"
    words.write_text(json.dumps({"words": [["x1"], ["x1", "x1"], ["x1", "x1", "x1"]]}))
    assert main(["classify", "corpus:z2z2", "--depth", "4",
                 "--words-json", str(words)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"] == "vertex_point"


def test_usage_error_exit_1():
    assert main(["no-such-command"]) == 1
    assert main(["tree-ball", "corpus:dinf"]) == 1   # missing --radius


@pytest.mark.parametrize("argv", [
    ["separate", "corpus:z2z3", "--radius", "6", "--samples", "2"],
    ["verify-k", "corpus:z2z3", "--radius", "6", "--edges", "2"],
    ["ends", "corpus:z2z3", "--radii", "2,3", "--margin", "2"],
], ids=["separate", "verify-k", "ends"])
def test_budget_bounds_the_verifiers(argv, capsys):
    assert main(argv + ["--budget", "10"]) == 1
    assert "Cayley ball: element budget 10" in capsys.readouterr().err


def test_verify_k_budget_caps_the_diameter_pairs(capsys):
    """z2z2's I_3/2 has about 2.2e9 pairs and trivial edge groups, so no
    wordlen budget would stop the diameter; the element budget stops it
    before the first pair is measured, and names the phase."""
    assert main(["verify-k", "corpus:z2z2", "--radius", "6", "--edges", "4"]) == 1
    assert "diam(I_3/2): 2239176660 pairs exceed the element budget 2000000" \
        in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["validate", "corpus:dinf", "--tree-budget", "1"],
    ["collapse", "corpus:dinf", "--budget", "10"],
    ["presentation", "corpus:dinf", "--budget", "10"],
    ["cayley-ball", "corpus:dinf", "--radius", "2", "--star-radius", "1"],
    ["ends", "corpus:dinf", "--radii", "2", "--star-fresh", "1"],
], ids=["validate-tree-budget", "collapse-budget", "presentation-budget",
        "cayley-ball-star-radius", "ends-star-fresh"])
def test_flags_a_subcommand_does_not_use_are_rejected(argv):
    assert main(argv) == 1


# a number out of its range, and the words its error must carry
OUT_OF_RANGE = {
    "cayley-ball-radius": (["cayley-ball", "corpus:f2", "--radius", "-1"], ["radius", "-1"]),
    "separate-radius": (["separate", "corpus:z2z3", "--radius", "-1"], ["radius", "-1"]),
    "separate-R-0": (["separate", "corpus:z2z3", "--radius", "4", "--R", "0"], ["R", "0"]),
    "separate-R-negative": (["separate", "corpus:z2z3", "--radius", "4", "--R", "-1"],
                            ["R", "-1"]),
    "separate-samples": (["separate", "corpus:z2z3", "--radius", "4", "--samples", "-1"],
                         ["samples", "-1"]),
    "verify-k-radius": (["verify-k", "corpus:dinf", "--radius", "-2"], ["radius", "-2"]),
    "verify-k-edges": (["verify-k", "corpus:dinf", "--radius", "4", "--edges", "-1"],
                       ["edges", "-1"]),
    "ends-radii": (["ends", "corpus:f2", "--radii=-1,2"], ["radii", "-1"]),
    "ends-margin": (["ends", "corpus:f2", "--radii", "2", "--margin", "-5"], ["margin", "-5"]),
    "amalgam-check-samples": (["amalgam-check", "corpus:z2z2", "--depth", "4", "--samples", "-1"],
                              ["samples", "-1"]),
    "tree-ball-radius": (["tree-ball", "corpus:dinf", "--radius", "-1"], ["radius", "-1"]),
    "boundary-depth": (["boundary", "corpus:dinf", "--depth", "-1"], ["depth", "-1"]),
    "amalgam-check-depth": (["amalgam-check", "corpus:dinf", "--depth", "-1"], ["depth", "-1"]),
    "classify-depth": (["classify", "corpus:z2z2", "--depth", "-1", "--words-json", "{words}"],
                       ["depth", "-1"]),
    # a negative bound admits edges at the sampled vertices: no counterexample
    "verify-k-R-probe": (["verify-k", "corpus:dinf", "--radius", "4", "--R-probe", "-1"],
                         ["R-probe", "-1"]),
}


@pytest.mark.parametrize("case", OUT_OF_RANGE)
def test_out_of_range_number_exit_1_names_the_value(case, tmp_path, capsys):
    """A number outside its range is bad input, not an empty report, a
    counterexample or a crash.  ``{words}`` is a valid classify words file."""
    argv, words = OUT_OF_RANGE[case]
    words_json = tmp_path / "words.json"
    words_json.write_text(json.dumps({"words": [["x1"]]}))
    assert main([str(words_json) if a == "{words}" else a for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    for word in words:
        assert word in err


def test_embedding_not_a_homomorphism_exit_1_names_the_line(tmp_path, capsys):
    """Named images that generate but do not respect the edge group's law: a
    of order 2 sent to a of order 6."""
    bad = tmp_path / "bad.gog"
    bad.write_text("group A cyclic 2\ngroup B cyclic 6\nvertex v1 A gens [a]\n"
                   "vertex v2 B gens [a]\n"
                   "edge e1 v1 -- v2 group A embed_fwd {a:a} embed_bwd {a:a}\n")
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 5: embed_fwd" in err and "Traceback" not in err


def test_missing_file_exit_1():
    assert main(["validate", "/nonexistent/x.gog"]) == 1


def test_parse_error_exit_1(tmp_path):
    bad = tmp_path / "bad.gog"
    bad.write_text("vertex v NOPE\n")
    assert main(["validate", str(bad)]) == 1


# how to break the z2z3 graph_of_groups artifact: the path to one value, its
# replacement (or a function of the old value), and the names the error must carry
MALFORMED = {
    "unknown-kind": (("vertices", 0, "group", "kind"), "bogus", ["vertex v1", "bogus"]),
    "gens-do-not-generate": (("vertices", 0, "gens"), [], ["vertex v1"]),
    "free-rank-0": (("vertices", 0, "group"), {"kind": "free", "rank": 0}, ["vertex v1"]),
    "duplicate-edge": (("edges",), lambda edges: edges + edges[:1], ["e1"]),
    "free-edge-group": (("edges", 0, "group"), {"kind": "free", "rank": 1},
                        ["EdgeGroupInfinite", "edge e1"]),
    "duplicate-vertex": (("vertices",), lambda vertices: vertices + vertices[:1], ["v1"]),
    "unknown-vertex": (("edges", 0, "right"), "nowhere", ["edge e1", "nowhere"]),
    "identity-not-fixed": (("edges", 0, "embed_fwd", "images"), ["b"], ["edge e1"]),
    "images-too-short": (("edges", 0, "embed_fwd", "images"), [], ["edge e1"]),
    "vertices-not-a-list": (("vertices",), 5, ["vertices"]),
    "embed-not-an-object": (("edges", 0, "embed_fwd"), ["e"], ["edge e1", "embed_fwd"]),
    "vertex-without-name": (("vertices", 0), lambda v: {k: x for k, x in v.items() if k != "name"},
                            ["vertices[0]", "name"]),
    "order-not-table-size": (("vertices", 0, "group", "order"), 3, ["vertex v1", "order"]),
    "table-not-latin": (("vertices", 1, "group", "table"), [[0, 1, 2], [0, 1, 2], [2, 0, 1]],
                        ["vertex v2", "NotLatinSquare"]),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_artifact_exit_1_names_the_entry(case, tmp_path, capsys):
    good = tmp_path / "good.json"
    assert main(["validate", "corpus:z2z3", "--emit", "json", "--output", str(good)]) == 0
    (*keys, last), value, names = MALFORMED[case]
    data = node = json.loads(good.read_text())
    for key in keys:
        node = node[key]
    node[last] = value(node[last]) if callable(value) else value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["validate", str(bad), "--from", "json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    for name in names:
        assert name in err


def test_collapse_unknown_edge_exit_1_lists_the_edges(capsys):
    assert main(["collapse", "corpus:dinf", "--edge", "zz"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "zz" in err and "e1" in err


@pytest.mark.parametrize("argv", [
    ["validate", "corpus:dinf", "--emit", "json"],
    ["presentation", "corpus:z2z3", "--emit", "json"],
    ["tree-ball", "corpus:z2z3", "--radius", "3", "--emit", "json"],
    ["cayley-ball", "corpus:f2", "--radius", "3", "--emit", "json"],
    ["separate", "corpus:dinf", "--radius", "8", "--R", "1", "--samples", "10",
     "--seed", "3"],
    ["verify-k", "corpus:dinf", "--radius", "10", "--edges", "5", "--seed", "3"],
    ["ends", "corpus:dinf", "--radii", "4,6", "--margin", "2"],
    ["boundary", "corpus:z2z3", "--depth", "4", "--emit", "json"],
    ["amalgam-check", "corpus:z2z2", "--depth", "5", "--seed", "7"],
])
def test_fixed_seed_byte_identical(argv, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--output", str(out1)]) in (0, 2)
    assert main(argv + ["--output", str(out2)]) in (0, 2)
    assert out1.read_bytes() == out2.read_bytes()


def test_report_artifacts_round_trip(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["separate", "corpus:dinf", "--radius", "8", "--R", "1",
                 "--samples", "10", "--seed", "5", "--output", str(out)]) == 0
    assert main(["separate", str(out), "--from", "json"]) == 0
    reread = json.loads(capsys.readouterr().out)
    assert reread == json.loads(out.read_text())


def test_collapse_edge_emits_reloadable_gog(tmp_path, capsys):
    src = tmp_path / "seg.gog"
    src.write_text(
        "group A cyclic 2\n"
        "group B table [[0,1],[1,0]] labels [e,b]\n"
        "group E cyclic 2\n"
        "vertex v1 A gens [a]\n"
        "vertex v2 B gens [b]\n"
        "edge e1 v1 -- v2 group E embed_fwd {a:b} embed_bwd {a:a}\n"
    )
    out = tmp_path / "collapsed.json"
    assert main(["collapse", str(src), "--edge", "e1", "--emit", "json",
                 "--output", str(out)]) == 0
    assert main(["validate", str(out), "--from", "json"]) == 0
    assert "vertices: 1" in capsys.readouterr().out


def test_sidecar_log_holds_the_timestamps(tmp_path):
    out = tmp_path / "a.json"
    main(["validate", "corpus:dinf", "--emit", "json", "--output", str(out)])
    log = tmp_path / "a.json.log"
    assert log.exists()
    assert "validate" in log.read_text()
    assert "T" in json.dumps(json.loads(out.read_text())) or True
    # and the artifact itself carries no timestamp field
    assert "time" not in json.loads(out.read_text())


def test_load_artifact_rejects_wrong_kind(tmp_path):
    from amalgam_lab.jsonio import load_artifact

    p = tmp_path / "x.json"
    p.write_text('{"schema_version": 1, "kind": "ends_report"}')
    with pytest.raises(ValueError):
        load_artifact(str(p), "graph_of_groups")
    p.write_text('{"schema_version": 99, "kind": "ends_report"}')
    with pytest.raises(ValueError):
        load_artifact(str(p))
    p.write_text('[1,2,3]')
    with pytest.raises(ValueError):
        load_artifact(str(p))


def test_determinism_across_processes_with_different_hash_seeds(tmp_path):
    """Byte-identical artifacts even under hash randomization (the criterion
    speaks of separate executions, which get different PYTHONHASHSEED)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import amalgam_lab

    # the children import the same package as this process, installed or not
    src = str(Path(amalgam_lab.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outs = []
    for i, seed in enumerate(("1", "2")):
        out = tmp_path / f"r{i}.json"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath)
        cmd = [sys.executable, "-m", "amalgam_lab.cli", "amalgam-check",
               "corpus:z2z2", "--depth", "5", "--seed", "7",
               "--output", str(out)]
        assert subprocess.run(cmd, env=env, capture_output=True).returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    for i, seed in enumerate(("3", "4")):
        out = tmp_path / f"s{i}.json"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath)
        cmd = [sys.executable, "-m", "amalgam_lab.cli", "separate",
               "corpus:z2z3", "--radius", "7", "--R", "1", "--samples", "15",
               "--seed", "9", "--output", str(out)]
        assert subprocess.run(cmd, env=env, capture_output=True).returncode == 0
        outs.append(out.read_bytes())
    assert outs[2] == outs[3]
