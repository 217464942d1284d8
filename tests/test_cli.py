from __future__ import annotations

import argparse
import json
import re
import tracemalloc

import pytest

from amalgam_lab.cli import build_parser, main
from amalgam_lab.corpus import path as corpus_path
from amalgam_lab.dsl import gog_from_json, gog_to_json, parse_gog
from amalgam_lab.jsonio import SCHEMA_VERSION

from conftest import ALL_TEXTS, GOG_TEXTS


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


@pytest.mark.parametrize("name, radius", [(name, 0) for name in ALL_TEXTS] + [("chain", 1)])
def test_tree_ball_short_of_an_identity_edge_leaves_out_the_tiling_tree(
        name, radius, tmp_path, capsys):
    """At radius 0 the ball is the root alone, and chain's identity edges
    lie deeper than 1: the artifact leaves the tiling tree out, as it does
    for a graph with no edges."""
    src = tmp_path / f"{name}.gog"
    src.write_text(ALL_TEXTS[name])
    assert main(["tree-ball", str(src), "--radius", str(radius), "--emit", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "tiling_tree" not in data
    if radius == 0:
        assert data["n_vertices"] == 1


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
    assert main(["separate", "corpus:dinf", "--radius", "8", "--R", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "holds"


def test_verify_k_passes(capsys):
    assert main(["verify-k", "corpus:dinf", "--radius", "10"]) == 0
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


@pytest.mark.parametrize("argv", [
    ["ends", "corpus:f2", "--radii", "3", "--margin", "2"],
    ["ends", "corpus:dinf", "--radii", "3,3", "--margin", "2"],
], ids=["one-radius", "one-distinct-radius"])
def test_ends_needs_two_distinct_radii(argv, capsys):
    """A stabilization pattern needs two radii: f2 at radius 3 alone has 108
    components and dinf 2, and neither is a verdict."""
    assert main(argv) == 2
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "inconclusive"
    assert "did not stabilize: a pattern needs two distinct radii" in data["error"]


def test_ends_counts_a_repeated_radius_once(capsys):
    """f2 has 36 components at radius 2 and 108 at radius 3; a repeated 2
    would read (36, 36, 108), which is not strictly growing."""
    assert main(["ends", "corpus:f2", "--radii", "2,2,3", "--margin", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "infinity-growing"
    assert data["radii"] == [2, 3] and data["counts"] == [36, 108]


def test_ends_reads_0_from_one_exhausted_ball(capsys):
    assert main(["ends", "corpus:trivial", "--radii", "3", "--margin", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "0"


@pytest.mark.parametrize("argv", [
    ["verify-k", "corpus:trivial", "--radius", "3"],
    ["separate", "corpus:zz", "--radius", "3"],
], ids=["verify-k", "separate"])
def test_verifiers_refuse_a_graph_with_no_edges(argv, capsys):
    """With no edge there is no edge coset to test, so a run would hold
    having tested nothing."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "NoEdges: the underlying graph has no edges" in captured.err


@pytest.mark.parametrize("argv", [
    ["separate", "corpus:dinf", "--radius", "2", "--R", "1"],
    ["separate", "corpus:z2z3", "--radius", "3", "--R", "2"],
    ["verify-k", "corpus:dinf", "--radius", "2"],
], ids=["separate-R1", "separate-R2", "verify-k"])
def test_verifiers_refuse_a_radius_with_no_witnesses(argv, capsys):
    """A radius at which no identity edge has witness points on both sides
    would hold having tested nothing: it exits 1 and names the radius."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: PreconditionUnmet: radius {argv[3]}: no edge has")


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
    ["separate", "corpus:z2z3", "--radius", "6"],
    ["verify-k", "corpus:z2z3", "--radius", "6"],
    ["ends", "corpus:z2z3", "--radii", "2,3", "--margin", "2"],
], ids=["separate", "verify-k", "ends"])
def test_budget_bounds_the_verifiers(argv, capsys):
    assert main(argv + ["--budget", "10"]) == 1
    assert "Cayley ball: element budget 10" in capsys.readouterr().err


def test_verify_k_budget_caps_the_diameter_pairs(capsys):
    """z2z2's I_3/2 has about 2.2e9 pairs and trivial edge groups, so no
    wordlen budget would stop the diameter; the element budget stops it
    before the first pair is measured, and names the phase."""
    assert main(["verify-k", "corpus:z2z2", "--radius", "6"]) == 1
    assert "diam(I_3/2): 2239176660 pairs exceed the element budget 2000000" \
        in capsys.readouterr().err


def test_verify_k_on_f2_measures_few_diameter_pairs(dist_calls, capsys):
    """f2's I_3/2 at radius 6 has 1,457 elements, 1,060,696 pairs; the
    pruned diameter measures fewer than 100 of them."""
    assert main(["verify-k", "corpus:f2", "--radius", "6"]) == 0
    assert 0 < dist_calls[0] < 100


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
    "verify-k-radius": (["verify-k", "corpus:dinf", "--radius", "-2"], ["radius", "-2"]),
    # a radius that leaves no margin for coset points would pass having tested nothing
    "separate-radius-no-margin": (["separate", "corpus:z2z3", "--radius", "2", "--R", "3"],
                                  ["radius", "2"]),
    "verify-k-radius-no-margin": (["verify-k", "corpus:z2z3", "--radius", "1"], ["radius", "1"]),
    "verify-k-edges": (["verify-k", "corpus:dinf", "--radius", "4", "--edges", "-1"],
                       ["edges", "-1"]),
    "ends-radii": (["ends", "corpus:f2", "--radii=-1,2"], ["radii", "-1"]),
    "ends-margin": (["ends", "corpus:f2", "--radii", "2", "--margin", "-5"], ["margin", "-5"]),
    "amalgam-check-samples": (["amalgam-check", "corpus:z2z2", "--depth", "4", "--samples", "-1"],
                              ["samples", "-1"]),
    # (a5) with no sampled pair would pass having tested nothing
    "amalgam-check-samples-0": (["amalgam-check", "corpus:z2z2", "--depth", "4",
                                 "--samples", "0"], ["samples", "0"]),
    "tree-ball-radius": (["tree-ball", "corpus:dinf", "--radius", "-1"], ["radius", "-1"]),
    "boundary-depth": (["boundary", "corpus:dinf", "--depth", "-1"], ["depth", "-1"]),
    "amalgam-check-depth": (["amalgam-check", "corpus:dinf", "--depth", "-1"], ["depth", "-1"]),
    "classify-depth": (["classify", "corpus:z2z2", "--depth", "-1", "--words-json", "{words}"],
                       ["depth", "-1"]),
    # a negative bound admits the vertices at the edge: no counterexample
    "verify-k-R-probe": (["verify-k", "corpus:dinf", "--radius", "4", "--R-probe", "-1"],
                         ["R-probe", "-1"]),
}


# input and flags with which each subcommand computes, so that a range check
# made after parsing runs; {words} is a valid classify words file
COMPUTING = {
    "tree-ball": ["corpus:dinf", "--radius", "2"],
    "cayley-ball": ["corpus:dinf", "--radius", "2"],
    "separate": ["corpus:dinf", "--radius", "6"],
    "verify-k": ["corpus:dinf", "--radius", "6"],
    "ends": ["corpus:dinf", "--radii", "2,3"],
    "boundary": ["corpus:dinf", "--depth", "4"],
    "amalgam-check": ["corpus:dinf", "--depth", "4"],
    "classify": ["corpus:z2z2", "--words-json", "{words}"],
}


def _integer_options() -> list[tuple[str, str]]:
    """(subcommand, flag) of every option whose value parses to an integer,
    but --seed, which takes any integer."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    found = []
    for command, parser in sub.choices.items():
        for action in parser._actions:
            if (action.option_strings and action.type is not None
                    and "--seed" not in action.option_strings
                    and isinstance(action.type("7"), int)):
                found.append((command, action.option_strings[0]))
    return found


@pytest.mark.parametrize("command, flag", _integer_options())
def test_no_integer_option_accepts_minus_one(command, flag, tmp_path, capsys):
    """No integer flag but --seed has a meaning at -1: each exits 1 with an
    error line that names it."""
    words_json = tmp_path / "words.json"
    words_json.write_text(json.dumps({"words": [["x1"], ["x1", "x1"], ["x1", "x1", "x1"]]}))
    argv = [command, *(str(words_json) if a == "{words}" else a for a in COMPUTING[command])]
    assert main(argv + [flag, "-1"]) == 1
    err = capsys.readouterr().err
    assert "error: " in err and flag.lstrip("-") in err and "Traceback" not in err


def test_separate_rejects_the_removed_samples_flag(capsys):
    """separate analyses each edge orbit once, so it takes no sample count."""
    assert main(["separate", "corpus:z2z3", "--radius", "4", "--samples", "5"]) == 1
    assert "unrecognized arguments: --samples 5" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["separate", "corpus:z2z3", "--radius", "6", "--R", "1"],
    ["separate", "corpus:f2", "--radius", "6", "--R", "2"],
    ["verify-k", "corpus:dinf", "--radius", "6", "--R-probe", "1"],
    ["verify-k", "corpus:z2z3", "--radius", "6"],
], ids=["separate-z2z3", "separate-f2-R2", "verify-k-dinf-probe", "verify-k-z2z3"])
def test_verifier_artifacts_ignore_seed_and_edges(argv, tmp_path):
    """The verifiers sample nothing: their artifacts are byte-identical for
    every --seed, and verify-k's for every --edges, which it accepts and
    ignores."""
    runs = [["--seed", s] for s in ("0", "1", "3")]
    if argv[0] == "verify-k":
        runs += [["--edges", e] for e in ("0", "4", "32")]
    outs = []
    for i, extra in enumerate(runs):
        out = tmp_path / f"{i}.json"
        assert main(argv + extra + ["--output", str(out)]) in (0, 2)
        outs.append(out.read_bytes())
    assert all(out == outs[0] for out in outs)


@pytest.mark.parametrize("argv, flag", [
    (["tree-ball", "corpus:dinf"], "--radius"),
    (["ends", "corpus:dinf"], "--radii"),
    (["amalgam-check", "corpus:dinf"], "--depth"),
    (["classify", "corpus:dinf"], "--words-json"),
])
def test_missing_computation_flag_exit_1_names_it(argv, flag, capsys):
    """Flags that --from json re-emission does not need are checked when the
    subcommand computes."""
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {flag} is required\n"


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


@pytest.mark.parametrize("argv, flag", [
    (["ends", "corpus:f2", "--radii", "3,,5"], "--radii"),
    (["ends", "corpus:f2", "--radii", ""], "--radii"),
    (["ends", "corpus:f2", "--radii", "2", "--budget", "-1"], "--budget"),
    (["amalgam-check", "corpus:z2z2", "--depth", "4", "--tree-budget", "0"], "--tree-budget"),
    (["tree-ball", "corpus:z2z2", "--radius", "2", "--star-radius", "0"], "--star-radius"),
    (["tree-ball", "corpus:z2z2", "--radius", "2", "--star-small", "0"], "--star-small"),
    (["tree-ball", "corpus:z2z2", "--radius", "2", "--star-fresh", "-1"], "--star-fresh"),
], ids=["radii-empty-entry", "radii-empty", "budget-negative", "tree-budget-zero",
        "star-radius-zero", "star-small-zero", "star-fresh-negative"])
def test_malformed_flag_exit_1_names_the_flag(argv, flag, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: argument {flag}: " in err and "Traceback" not in err


def test_amalgam_check_needs_two_small_star_parameters(capsys):
    """One small parameter would turn the z2z2 PASS into a false FAIL, so
    amalgam-check refuses it as bad input; tree-ball still accepts it."""
    assert main(["amalgam-check", "corpus:z2z2", "--depth", "5", "--star-small", "1"]) == 1
    err = capsys.readouterr().err
    assert "--star-small >= 2" in err and "Traceback" not in err
    assert main(["tree-ball", "corpus:z2z2", "--radius", "2", "--star-small", "1"]) == 0


@pytest.mark.parametrize("argv", [
    ["corpus:z2z2", "--depth", "5", "--star-fresh", "0"],
    ["corpus:z2z2", "--depth", "5", "--star-radius", "1", "--star-small", "5"],
    ["corpus:zxz2", "--depth", "5", "--star-fresh", "0"],
], ids=["z2z2-fresh-0", "z2z2-top-band-in-small-band", "zxz2-fresh-0"])
def test_amalgam_check_needs_a_fresh_star_parameter(argv, capsys):
    """A star with no fresh parameter leaves every limit set empty, which
    would fail (a4) on every prefix group without a counterexample; so
    amalgam-check refuses it as bad input, naming --star-fresh, and
    tree-ball still accepts it."""
    assert main(["amalgam-check", *argv]) == 1
    err = capsys.readouterr().err
    assert "--star-fresh" in err and "Traceback" not in err
    assert main(["tree-ball", argv[0], "--radius", "2", *argv[3:]]) == 0


def test_tree_budget_is_checked_before_any_vertex_is_built(capsys):
    """The tree ball counts its layers from the cone types first, so z2z2 at
    depth 9 (436,906 vertices) stops on the 200,000-vertex budget having
    allocated almost nothing: building up to the budget takes tens of MB."""
    tracemalloc.start()
    try:
        assert main(["amalgam-check", "corpus:z2z2", "--depth", "9"]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "tree ball: element budget 200000 exceeded" in capsys.readouterr().err
    assert peak < 2_000_000


def test_embedding_not_a_homomorphism_exit_1_names_the_line(tmp_path, capsys):
    """Named images that generate but do not respect the edge group's law: a
    of order 2 sent to a of order 6."""
    bad = tmp_path / "bad.gog"
    bad.write_text("group A cyclic 2\ngroup B cyclic 6\nvertex v1 A gens [a]\n"
                   "vertex v2 B gens [a]\n"
                   "edge e1 v1 -- v2 group A embed_fwd {a:a} embed_bwd {a:a}\n")
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 5, col 26: NotHomomorphism: embed_fwd: " in err and "Traceback" not in err


def test_missing_file_exit_1():
    assert main(["validate", "/nonexistent/x.gog"]) == 1


@pytest.mark.parametrize("argv", [
    ["validate", "{dir}"],
    ["validate", "{dir}", "--from", "json"],
    ["classify", "corpus:z2z2", "--depth", "2", "--words-json", "{dir}"],
], ids=["input", "input-from-json", "words-json"])
def test_unreadable_path_exit_1_names_it(argv, tmp_path, capsys):
    """A directory is a path that exists but cannot be read as a file."""
    assert main([str(tmp_path) if a == "{dir}" else a for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err and "Traceback" not in err


@pytest.mark.parametrize("content, entry", [
    ({"words": 5}, "words must"),
    ([1], "words must"),
    ({"words": [["x1"], ["x1", 5]]}, "words[1]"),
    ("not json", "line 1, column 1"),
], ids=["words-not-a-list", "top-level-list", "label-not-a-string", "not-json"])
def test_classify_words_json_shape_exit_1_names_the_entry(content, entry, tmp_path, capsys):
    """A str is the file's whole text."""
    sample = tmp_path / "sample.json"
    sample.write_text(content if isinstance(content, str) else json.dumps(content))
    assert main(["classify", "corpus:z2z2", "--depth", "2", "--words-json", str(sample)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {sample}: {entry}") and "Traceback" not in err


def test_parse_error_exit_1(tmp_path):
    bad = tmp_path / "bad.gog"
    bad.write_text("vertex v NOPE\n")
    assert main(["validate", str(bad)]) == 1


# how to break the z2z3 graph_of_groups artifact: the path to one value, its
# replacement (or a function of the old value), and the names the error must
# carry; an empty path replaces the file's whole text
MALFORMED = {
    "not-json": ((), "not json", ["bad.json: line 1, column 1"]),
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
    path, value, names = MALFORMED[case]
    text = value
    if path:
        *keys, last = path
        data = node = json.loads(good.read_text())
        for key in keys:
            node = node[key]
        node[last] = value(node[last]) if callable(value) else value
        text = json.dumps(data)
    bad = tmp_path / "bad.json"
    bad.write_text(text)
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
    ["separate", "corpus:dinf", "--radius", "8", "--R", "1"],
    ["verify-k", "corpus:dinf", "--radius", "10"],
    ["ends", "corpus:dinf", "--radii", "4,6", "--margin", "2"],
    ["boundary", "corpus:z2z3", "--depth", "4", "--emit", "json"],
    ["amalgam-check", "corpus:z2z2", "--depth", "5", "--seed", "7"],
])
def test_fixed_seed_byte_identical(argv, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--output", str(out1)]) in (0, 2)
    assert main(argv + ["--output", str(out2)]) in (0, 2)
    assert out1.read_bytes() == out2.read_bytes()


# one argv per emitted kind other than graph_of_groups; {words} is a
# classify sample written at run time
ROUND_TRIPS = {
    "presentation": ["presentation", "corpus:dinf"],
    "tree_ball": ["tree-ball", "corpus:z2z3", "--radius", "3"],
    "cayley_ball": ["cayley-ball", "corpus:f2", "--radius", "2"],
    "separation_report-separate": ["separate", "corpus:dinf", "--radius", "8", "--R", "1"],
    "separation_report-verify-k": ["verify-k", "corpus:dinf", "--radius", "8"],
    "ends_report": ["ends", "corpus:dinf", "--radii", "2,3", "--margin", "2"],
    "ends_report-inconclusive": ["ends", "corpus:zz", "--radii", "2", "--margin", "0"],
    "boundary_approx": ["boundary", "corpus:z2z3", "--depth", "4"],
    "amalgam_certificate": ["amalgam-check", "corpus:z2z2", "--depth", "4", "--samples", "5"],
    "classification": ["classify", "corpus:z2z2", "--depth", "4", "--words-json", "{words}"],
    "collapse_decision": ["collapse", "corpus:z2z3"],
}


def _envelopes(node) -> list[dict]:
    """Every dict in a payload that names an artifact kind, outermost first."""
    if isinstance(node, list):
        return [e for item in node for e in _envelopes(item)]
    if not isinstance(node, dict):
        return []
    inner = [e for value in node.values() for e in _envelopes(value)]
    return ([node] if "kind" in node else []) + inner


# the --emit choices of each subcommand that offers more than text and json
EMITS = {"presentation": ("gap",), "tree-ball": ("dot",), "cayley-ball": ("dot",)}


def _round_trip_argv(case, tmp_path) -> list[str]:
    words = tmp_path / "words.json"
    words.write_text(json.dumps({"words": [["x1"], ["x1", "x1"], ["x1", "x1", "x1"]]}))
    return [str(words) if a == "{words}" else a for a in ROUND_TRIPS[case]]


@pytest.mark.parametrize("case, fmt", [
    pytest.param(case, fmt, id=case if fmt == "json" else f"{case}-{fmt}")
    for case, argv in ROUND_TRIPS.items()
    for fmt in ("json", "text", *EMITS.get(argv[0], ()))
])
def test_report_artifacts_round_trip(case, fmt, tmp_path):
    """Each kind is re-emitted through --from json in every --emit form, byte
    for byte as the direct run prints it and with exit code 0, rendered from
    the loaded artifact (lists for tuples, sorted keys); and every envelope,
    nested ones included, carries the schema version."""
    argv = _round_trip_argv(case, tmp_path)
    out, direct, back = tmp_path / "out.json", tmp_path / "direct.out", tmp_path / "back.out"
    assert main(argv + ["--emit", "json", "--output", str(out)]) in (0, 2)
    assert main(argv + ["--emit", fmt, "--output", str(direct)]) in (0, 2)
    assert main([argv[0], str(out), "--from", "json", "--emit", fmt,
                 "--output", str(back)]) == 0
    assert back.read_bytes() == direct.read_bytes()
    envelopes = _envelopes(json.loads(out.read_text()))
    assert envelopes[0]["kind"] == case.split("-")[0]
    assert len(envelopes) == (3 if case == "amalgam_certificate" else 1)
    assert all(e["schema_version"] == SCHEMA_VERSION for e in envelopes)


# how to break a passed-through artifact: its ROUND_TRIPS case, the field, and
# the field's new value (None deletes it)
BROKEN_FIELDS = {
    "missing": ("ends_report", "counts", None),
    "not-a-list": ("cayley_ball", "layer_sizes", 5),
    "not-an-object": ("amalgam_certificate", "conditions", [1]),
    "nested-not-an-object": ("amalgam_certificate", "branch_density", "pass"),
}


@pytest.mark.parametrize("broken", BROKEN_FIELDS)
def test_malformed_pass_through_exit_1_names_the_field(broken, tmp_path, capsys):
    case, field, value = BROKEN_FIELDS[broken]
    argv = _round_trip_argv(case, tmp_path)
    out = tmp_path / "out.json"
    assert main(argv + ["--emit", "json", "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    if value is None:
        del data[field]
    else:
        data[field] = value
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main([argv[0], str(out), "--from", "json", "--emit", "text"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: ") and repr(field) in err and "Traceback" not in err


def test_separation_failure_witness_ignores_key_order(tmp_path, capsys):
    """A witness is printed the same whatever the key order of the loaded file."""
    out = tmp_path / "report.json"
    assert main(ROUND_TRIPS["separation_report-separate"] + ["--output", str(out)]) == 0
    report = dict(json.loads(out.read_text()), verdict="fails")
    texts = []
    for witness in ({"x0": "a", "reason": "r"}, {"reason": "r", "x0": "a"}):
        out.write_text(json.dumps(dict(report, failures=[witness])))
        assert main(["separate", str(out), "--from", "json", "--emit", "text"]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert 'FAILS' in texts[0] and 'failures: 1 (first: {"reason": "r", "x0": "a"})' in texts[0]


def test_amalgam_check_text_reads_fail_on_branch_density(tmp_path, capsys):
    """PASS needs (a1)-(a5) and branch density: a failed density check reads FAIL."""
    out = tmp_path / "cert.json"
    assert main(ROUND_TRIPS["amalgam_certificate"] + ["--output", str(out)]) == 0
    cert = json.loads(out.read_text())
    cert["branch_density"]["status"] = "fail"
    out.write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["amalgam-check", str(out), "--from", "json", "--emit", "text"]) == 0
    assert capsys.readouterr().out.startswith("amalgam-check depth 4: FAIL\n")


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
    assert re.match(r"^\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d validate corpus:dinf",
                    log.read_text())
    # and the artifact itself carries no timestamp field
    assert "time" not in json.loads(out.read_text())


def test_load_artifact_rejects_wrong_kind(tmp_path):
    from amalgam_lab.jsonio import load_artifact

    p = tmp_path / "x.json"
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
               "corpus:z2z3", "--radius", "7", "--R", "1", "--seed", "9",
               "--output", str(out)]
        assert subprocess.run(cmd, env=env, capture_output=True).returncode == 0
        outs.append(out.read_bytes())
    assert outs[2] == outs[3]


def test_import_leaves_the_coset_automaton_unloaded():
    """Importing the package and its CLI does not load ``coset_metric``: it
    is imported on the first coset distance, so a run that measures none
    does not compile it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import amalgam_lab

    src = str(Path(amalgam_lab.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = ("import sys, amalgam_lab, amalgam_lab.cli; "
            "print('amalgam_lab.coset_metric' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=pythonpath), check=True)
    assert out.stdout.strip() == "False"
