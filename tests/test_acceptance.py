"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Each test prints a single PASS line on success (run with ``pytest -s`` to see
them); any assertion failure marks the criterion as failed.
"""

from __future__ import annotations

import json
import time

import pytest

from amalgam_lab.boundary import (
    LimitSetApprox,
    amalgam_check,
    boundary_approx,
    branch_density_check,
    cantor_check,
    limit_set_family,
)
from amalgam_lab.bass_serre import TreeBall, tiling_tree
from amalgam_lab.cli import main as cli_main
from amalgam_lab.dsl import parse_gog
from amalgam_lab.fundgroup import emit_presentation
from amalgam_lab.gog import spanning_tree
from amalgam_lab.separation import (
    ends_estimate,
    verify_K_construction,
    verify_cayley_separation,
)

from conftest import ORACLES, make_fg, translate_vertex

FULL_CORPUS = ["trivial", "dinf", "z2z3", "f2", "zxz2", "z2z2"]


def _report(n: int, text: str):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_presentations():
    t0 = time.perf_counter()
    gog, sd, _ = make_fg("dinf")
    p = emit_presentation(gog, sd)
    assert p.generators == ("a", "b")
    assert set(p.relators) == {(1, 1), (2, 2)}

    loop = parse_gog("group T trivial\nvertex v T\n"
                     "edge e1 v -- v group trivial embed_fwd {} embed_bwd {}\n")
    p2 = emit_presentation(loop, spanning_tree(loop))
    assert len(p2.generators) == 1 and p2.relators == ()
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"presentations exact (D_inf = <a,b | a^2, b^2>, one-loop = Z) "
               f"in {elapsed:.3f}s")


def test_criterion_2_word_problem_oracle_equivalence():
    t0 = time.perf_counter()
    for name in ("dinf", "z2z3", "f2", "zxz2"):
        _, _, fg = make_fg(name)
        layers, _ = ORACLES[name].ball_layers(6)
        ball = fg.word_metric_ball(6)
        assert list(ball.layer_sizes) == layers, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(2, f"ball layers match the independent free-product oracle for "
               f"n <= 6 on 4 corpora in {elapsed:.1f}s")


def test_criterion_3_bass_serre_structure():
    t0 = time.perf_counter()
    _, _, fg = make_fg("dinf")
    for r in range(0, 13):
        tb = TreeBall(fg, r)
        assert len(tb.vertices) == 2 * r + 1
        assert sum(len(v.children) for v in tb.vertices) == len(tb.vertices) - 1
        assert all(tb.degree(v.vid) <= 2 for v in tb.vertices)

    gog, _, fg = make_fg("z2z3")
    tb = TreeBall(fg, 5)
    for v in tb.vertices:
        if v.depth < tb.radius:
            assert tb.degree(v.vid) == (2 if v.vtype == 0 else 3)
    for name in FULL_CORPUS:
        _, _, fg = make_fg(name)
        for r in (2, 4):
            tb = TreeBall(fg, r)
            assert len(tb.vertices) == sum(len(v.children) for v in tb.vertices) + 1, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(3, f"D_inf path at radii <= 12, (2,3)-degrees, |V| = |E|+1 "
               f"everywhere in {elapsed:.1f}s")


def test_criterion_4_tiling_tree_facts():
    t0 = time.perf_counter()
    for name in FULL_CORPUS:
        gog, _, fg = make_fg(name)
        if gog.graph.n_edges == 0:
            continue
        tb = TreeBall(fg, 5)
        tt = tiling_tree(tb)
        assert tt.connected
        for s in fg.generating_set().steps:
            assert any(
                (img := translate_vertex(tb, s, vid)) is not None
                and img in tt.vertex_ids
                for vid in tt.vertex_ids
            ), f"{name}: sT misses T"
        bound = gog.graph.n_edges
        for e in tb.vertices[1:]:
            mu = e.edge_rep
            for vtype in range(gog.graph.n_vertices):
                found = _edge_vertex_distance(fg, tb, e, mu, vtype, bound)
                assert found is not None and found <= bound, name
    elapsed = time.perf_counter() - t0
    _report(4, f"sT meets T for every generator; edge-to-vertex tree distance "
               f"<= |edges| exhaustively on radius-5 balls in {elapsed:.1f}s")


def _edge_vertex_distance(fg, tb, e, mu, vtype, bound):
    frontier = {e.up.vid, e.vid}
    seen = set(frontier)
    for dist in range(0, bound + 1):
        for vid in sorted(frontier):
            v = tb.vertices[vid]
            if v.vtype == vtype and fg.coset_membership(mu, vtype, v.rep):
                return dist
        nxt = set()
        for vid in frontier:
            v = tb.vertices[vid]
            if v.up is not None:
                nxt.add(v.up.vid)
            nxt.update(v.children)
        frontier = nxt - seen
        seen |= frontier
    return None


def test_criterion_5_cayley_separation_suite():
    t0 = time.perf_counter()
    tested = 0
    for name, radius in (("dinf", 10), ("z2z3", 8)):
        _, _, fg = make_fg(name)
        for R in (1, 2):
            report = verify_cayley_separation(fg, ball_radius=radius, R=R)
            assert report.holds, (name, R, report.failures[:3])
            tested += report.witness_pairs_tested
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(5, f"edge-coset separation at R = 1, 2 on both corpora: "
               f"0 failures over {tested} witness pairs in {elapsed:.1f}s")


def test_criterion_6_K_construction_suite():
    t0 = time.perf_counter()
    for name, radius in (("dinf", 12), ("z2z3", 10)):
        _, _, fg = make_fg(name)
        report = verify_K_construction(fg, ball_radius=radius)
        assert report.holds, (name, report.failures[:3])
        assert report.details["worst_R0"] <= report.details["diam_I_3/2"], name
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(6, f"K-construction: 0 failures, R0 within diam(I_3/2) on both "
               f"corpora in {elapsed:.1f}s")


def test_criterion_7_theorem_B_trichotomy():
    t0 = time.perf_counter()
    for name, radii, margin, expect in [
        ("trivial", [4, 6, 8], 3, "0"),
        ("zz", [4, 6, 8], 3, "1"),
        ("dinf", [4, 6, 8, 10], 3, "2"),
        ("f2", [3, 5, 7], 2, "infinity-growing"),
        ("z2z3", [4, 6, 8], 2, "infinity-growing"),
    ]:
        _, _, fg = make_fg(name)
        assert ends_estimate(fg, radii, margin=margin).verdict == expect, name

    # corresponding boundary branch counts
    _, _, fg = make_fg("trivial")
    assert len(boundary_approx(fg, 4)) == 0
    gog, _, fg = make_fg("zz")
    assert gog.graph.n_edges == 0 and len(boundary_approx(fg, 4)) == 0  # degenerate
    _, _, fg = make_fg("dinf")
    assert all(len(boundary_approx(fg, d)) == 2 for d in (3, 4, 5, 6))
    for name in ("f2", "z2z3"):
        _, _, fg = make_fg(name)
        counts = [len(boundary_approx(fg, d)) for d in (3, 5, 7)]
        assert counts[0] < counts[1] < counts[2], name
    elapsed = time.perf_counter() - t0
    _report(7, f"ends verdicts 0/1/2/growing and matching branch counts "
               f"in {elapsed:.1f}s")


def test_criterion_8_cantor_corollary():
    t0 = time.perf_counter()
    for name, expect in (("z2z3", True), ("f2", True), ("dinf", False)):
        _, _, fg = make_fg(name)
        for d in (5, 6, 7):
            verdict = cantor_check(boundary_approx(fg, d))
            assert verdict.passed is expect, (name, d)
            if not expect:
                assert not verdict.perfect_at_depth
    elapsed = time.perf_counter() - t0
    _report(8, f"Cantor surrogate passes on Z/2*Z/3 and F2 at depths 5-7, "
               f"fails perfectness on D_inf in {elapsed:.1f}s")


def test_criterion_9_theorem_A_property_suite():
    t0 = time.perf_counter()
    _, _, fg = make_fg("z2z2")
    b = boundary_approx(fg, 5)
    family = limit_set_family(b)
    cert = amalgam_check(b, family, seed=7)
    assert cert.passed, cert.conditions
    for k, v in cert.conditions["a2_null"]["max_diam_per_tree_distance"].items():
        assert v <= 2.0 ** (-int(k) + 1)
    assert branch_density_check(b, family).status == "pass"

    nonempty = [m for m in family if m.directions]
    fake = LimitSetApprox(nonempty[1].vertex,
                          (nonempty[0].directions[0],) + nonempty[1].directions)
    bad = amalgam_check(b, [nonempty[0], fake], seed=7)
    assert not bad.conditions["a1_disjoint"]["passed"]
    assert bad.conditions["a1_disjoint"]["witnesses"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(9, f"(a1)-(a5) + nullness diagnostics + branch density pass on "
               f"Z^2 * Z^2 at depth 5; adversarial family fails (a1) "
               f"in {elapsed:.1f}s")


@pytest.mark.parametrize("argv", [
    ["validate", "corpus:z2z3", "--emit", "json"],
    ["separate", "corpus:dinf", "--radius", "8", "--R", "1", "--seed", "11"],
    ["verify-k", "corpus:z2z3", "--radius", "8", "--seed", "11"],
    ["ends", "corpus:f2", "--radii", "3,5", "--margin", "2"],
    ["amalgam-check", "corpus:z2z2", "--depth", "5", "--seed", "11"],
])
def test_criterion_10_determinism(argv, tmp_path):
    out1, out2 = tmp_path / "run1.json", tmp_path / "run2.json"
    assert cli_main(argv + ["--output", str(out1)]) in (0, 2)
    assert cli_main(argv + ["--output", str(out2)]) in (0, 2)
    assert out1.read_bytes() == out2.read_bytes()
    json.loads(out1.read_text())
    _report(10, f"byte-identical JSON across two executions: {argv[0]}")
