from __future__ import annotations

import random
import re

import pytest

from amalgam_lab.cli import main
from amalgam_lab.corpus import NAMES
from amalgam_lab.dsl import gog_from_json, gog_to_json, parse_gog
from amalgam_lab.errors import (
    EdgeGroupInfinite,
    EdgeIsLoop,
    EmbeddingNotInjective,
    GogSyntaxError,
    GraphDisconnected,
    NotIsomorphism,
    UnknownGroupRef,
)
from amalgam_lab.fundgroup import abelianization, emit_presentation
from amalgam_lab.gog import (
    Elementarity,
    _collapsible_edges,
    _simply_elementary_case,
    elementary_collapse,
    is_non_elementary,
    spanning_tree,
)
from amalgam_lab.groups import cosets

from conftest import DEAD_ENDS, FINITE_EDGED, GOG_TEXTS, S3_Z4, SEGMENT

DINF = """
group A cyclic 2
group B table [[0,1],[1,0]] labels [e,b]
vertex v1 A gens [a]
vertex v2 B gens [b]
edge e1 v1 -- v2 group trivial embed_fwd {} embed_bwd {}
"""

LOOP_Z2_ISO = """
group A cyclic 2
group E cyclic 2
vertex v A gens [a]
edge e1 v -- v group E embed_fwd {a:a} embed_bwd {a:a}
"""


Z2Z3 = DINF.replace("table [[0,1],[1,0]] labels [e,b]",
                    "table [[0,1,2],[1,2,0],[2,0,1]] labels [e,b,b2]")


def test_parse_single_vertex():
    gog = parse_gog("group T trivial\nvertex v T\n")
    assert gog.graph.n_vertices == 1 and gog.graph.n_edges == 0


def test_parse_dinf_valid():
    gog = parse_gog(DINF)
    assert gog.graph.n_vertices == 2 and gog.graph.n_edges == 1
    assert gog.edge_groups[0].order == 1
    assert gog.all_edge_groups_trivial


def test_parse_infinite_edge_group():
    text = "group F free 1\nvertex v1 F\nvertex v2 F\n" \
           "edge e1 v1 -- v2 group F embed_fwd {} embed_bwd {}\n"
    with pytest.raises(GogSyntaxError, match=EdgeGroupInfinite.kind) as err:
        parse_gog(text)
    assert (err.value.line, err.value.column) == (4, 24)


def test_parse_syntax_error_carries_position():
    with pytest.raises(GogSyntaxError) as err:
        parse_gog("group A cyclic 2\nvertex v1 A gens [a\n")
    assert err.value.line == 2


def test_parse_unknown_group():
    with pytest.raises(GogSyntaxError, match=UnknownGroupRef.kind) as err:
        parse_gog("group A cyclic 2\nvertex v1 NOPE\n")
    assert (err.value.line, err.value.column) == (2, 11)


def test_parse_nontrivial_embedding_into_backend_rejected():
    text = "group P free_abelian 2\ngroup E cyclic 2\nvertex v1 P\nvertex v2 P\n" \
           "edge e1 v1 -- v2 group E embed_fwd {a:x1} embed_bwd {a:x1}\n"
    with pytest.raises(GogSyntaxError, match=EmbeddingNotInjective.kind) as err:
        parse_gog(text)
    assert (err.value.line, err.value.column) == (5, 26)


LOCATED = ["group A cyclic 2", "group E cyclic 2", "vertex v1 A gens [a]", "vertex v2 A gens [a]",
           "edge e1 v1 -- v2 group E embed_fwd {a:a} embed_bwd {a:a}", "group F free 1"]

# a line of LOCATED replaced, and the column and message of its error; an
# unterminated list is an error just past the end of its line
LOCATED_ERRORS = {
    "table-unterminated": (2, "group E table [[0,1],[1,0]", 27, "unexpected end of line (expected ']')"),
    "row-unterminated": (2, "group E table [[0,1],[1,0", 26, "unexpected end of line (expected ']')"),
    "table-entry": (2, "group E table [[0,x],[1,0]]", 19, "expected integer, got 'x'"),
    "table-row": (2, "group E table [[0,1],1]", 22, "expected '[', got '1'"),
    "labels-unterminated": (2, "group E table [[0,1],[1,0]] labels [e, a", 41,
                            "unexpected end of line (expected ']')"),
    "labels-item": (2, "group E table [[0,1],[1,0]] labels [e, :]", 40, "expected name, got ':'"),
    "gens-unterminated": (4, "vertex v2 A gens [a,", 21, "unexpected end of line (expected ']')"),
    "gens-item": (4, "vertex v2 A gens [a [a]]", 21, "expected name, got '['"),
    "map-unterminated": (5, "edge e1 v1 -- v2 group E embed_fwd {a:a} embed_bwd {a:a", 56,
                         "unexpected end of line (expected '}')"),
    "map-key": (5, "edge e1 v1 -- v2 group E embed_fwd {1:a} embed_bwd {a:a}", 37,
                "expected element name, got '1'"),
    "map-entry-without-colon": (5, "edge e1 v1 -- v2 group E embed_fwd {a a} embed_bwd {a:a}", 39,
                                "expected ':', got 'a'"),
    "map-repeated-key": (5, "edge e1 v1 -- v2 group E embed_fwd {a:a2, a:a} embed_bwd {a:a}", 43,
                         "repeated key 'a'"),
    "not-latin": (2, "group E table [[0,1],[0,1]]", 9, "NotLatinSquare: column 0 is not a permutation"),
    "labels-count": (2, "group E table [[0,1],[1,0]] labels [e]", 9,
                     "labels must be distinct and match the order"),
    "cyclic-0": (2, "group E cyclic 0", 9, "cyclic order must be >= 1"),
    "free-0": (1, "group A free 0", 9, "free rank must be >= 1"),
    # faults found when the declarations are joined: the token of the value at fault
    "vertex-duplicate": (4, "vertex v1 A gens [a]", 8, "duplicate vertex name 'v1'"),
    "vertex-unknown-group": (3, "vertex v1 NOPE gens [a]", 11, "UnknownGroupRef: unknown group 'NOPE'"),
    "gens-unknown-label": (3, "vertex v1 A gens [zz]", 19, "gens: no element labelled 'zz'"),
    "gens-do-not-generate": (3, "vertex v1 A gens [e]", 13, "gens do not generate the vertex group"),
    "edge-unknown-vertex": (5, "edge e1 v1 -- v9 group E embed_fwd {a:a} embed_bwd {a:a}", 15,
                            "UnknownGroupRef: unknown vertex 'v9'"),
    "edge-unknown-group": (5, "edge e1 v1 -- v2 group NOPE embed_fwd {a:a} embed_bwd {a:a}", 24,
                           "UnknownGroupRef: unknown group 'NOPE'"),
    "edge-group-infinite": (5, "edge e1 v1 -- v2 group F embed_fwd {} embed_bwd {}", 24,
                            "EdgeGroupInfinite: infinite edge group (free rank 1)"),
    "embed-unknown-label": (5, "edge e1 v1 -- v2 group E embed_fwd {a:zzz} embed_bwd {a:a}", 39,
                            "embed_fwd: no element labelled 'zzz'"),
    "embed-unknown-key": (5, "edge e1 v1 -- v2 group E embed_fwd {q:a} embed_bwd {a:a}", 37,
                          "embed_fwd: no element labelled 'q'"),
    "embed-not-injective": (5, "edge e1 v1 -- v2 group E embed_fwd {a:a} embed_bwd {a:e}", 42,
                            "EmbeddingNotInjective: embed_bwd: NotInjective: elements 0 and 1 "
                            "share the image 0"),
}


@pytest.mark.parametrize("case", LOCATED_ERRORS)
def test_declaration_errors_name_their_line_and_column(case, tmp_path, capsys):
    """Every malformed declaration is a SyntaxError at its line and column,
    and `validate` exits 1 with that one error line."""
    line, replacement, column, message = LOCATED_ERRORS[case]
    text = "\n".join(replacement if i == line else old
                     for i, old in enumerate(LOCATED, start=1)) + "\n"
    with pytest.raises(GogSyntaxError) as err:
        parse_gog(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"SyntaxError: line {line}, col {column}: {message}"
    path = tmp_path / "bad.gog"
    path.write_text(text)
    capsys.readouterr()
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {err.value}\n"


@pytest.mark.parametrize("gens", ["[foo, bar]", "[x2, x1]", "[x1]", "[]"])
def test_backend_gens_must_be_the_standard_basis(gens):
    """A free or free abelian vertex takes only the standard labels x1..xn,
    as gog_to_json writes them; other gens are rejected at their line or
    JSON entry, not replaced."""
    for kind in ("free", "free_abelian"):
        with pytest.raises(GogSyntaxError) as err:
            parse_gog(f"group F {kind} 2\nvertex v F gens {gens}\n")
        assert err.value.line == 2
        gog = parse_gog(f"group F {kind} 2\nvertex v F gens [x1, x2]\n")
        assert [lbl for lbl, _ in gog.generating_sets[0]] == ["x1", "x2"]
        data = gog_to_json(gog)
        data["vertices"][0]["gens"] = gens.strip("[]").replace(" ", "").split(",")
        with pytest.raises(GogSyntaxError, match="vertex v"):
            gog_from_json(data)


def test_parse_disconnected_graph():
    gog = parse_gog("group T trivial\nvertex v1 T\nvertex v2 T\n")
    with pytest.raises(GraphDisconnected):
        spanning_tree(gog)


def test_json_round_trip():
    gog = parse_gog(DINF)
    data = gog_to_json(gog)
    back = gog_from_json(data)
    assert gog_to_json(back) == data


def test_spanning_tree_single_loop():
    gog = parse_gog("group T trivial\nvertex v T\n"
                    "edge e1 v -- v group trivial embed_fwd {} embed_bwd {}\n")
    sd = spanning_tree(gog)
    assert sd.tree_edges == frozenset()
    assert sd.orientation == frozenset({0})


def test_spanning_tree_segment():
    sd = spanning_tree(parse_gog(DINF))
    assert sd.tree_edges == frozenset({0})


def test_spanning_tree_theta_graph():
    text = ("group T trivial\nvertex v1 T\nvertex v2 T\n"
            + "".join(f"edge e{i} v1 -- v2 group trivial embed_fwd {{}} embed_bwd {{}}\n"
                      for i in (1, 2, 3)))
    gog = parse_gog(text)
    sd = spanning_tree(gog)
    # BFS picks the least edge id; the two others are non-tree
    assert sd.tree_edges == frozenset({0})
    assert {2, 4} <= sd.orientation


def test_spanning_tree_deterministic():
    a = spanning_tree(parse_gog(DINF))
    b = spanning_tree(parse_gog(DINF))
    assert a == b


def test_collapse_segment_iso():
    gog = parse_gog(SEGMENT)
    collapsed = elementary_collapse(gog, "e1")
    assert collapsed.graph.n_vertices == 1 and collapsed.graph.n_edges == 0
    assert collapsed.vertex_groups[0].order == 2


def test_collapse_preserves_abelianization():
    gog = parse_gog(SEGMENT)
    before = abelianization(emit_presentation(gog, spanning_tree(gog)))
    collapsed = elementary_collapse(gog, "e1")
    after = abelianization(emit_presentation(collapsed, spanning_tree(collapsed)))
    assert before == after == (0, (2,))


def test_collapse_not_isomorphism():
    with pytest.raises(NotIsomorphism):
        elementary_collapse(parse_gog(DINF), "e1")


def test_collapse_loop_rejected():
    gog = parse_gog(LOOP_Z2_ISO)
    with pytest.raises(EdgeIsLoop):
        elementary_collapse(gog, "e1")


def test_collapse_retargets_other_edges():
    # one collapsible edge plus a loop hanging at the absorbed vertex
    text = """
group A cyclic 4
group B cyclic 4
group E cyclic 4
group E2 cyclic 2
vertex v1 A gens [a]
vertex v2 B gens [a]
edge e1 v1 -- v2 group E embed_fwd {a:a} embed_bwd {a:a}
edge e2 v2 -- v2 group E2 embed_fwd {a:a2} embed_bwd {a:a2}
"""
    gog = parse_gog(text)
    collapsed = elementary_collapse(gog, "e1")
    assert collapsed.graph.n_vertices == 1 and collapsed.graph.n_edges == 1
    # the loop embeddings now land in the kept Z/4
    emb = collapsed.embedding(0)
    assert emb.target.order == 4
    before = abelianization(emit_presentation(gog, spanning_tree(gog)))
    after = abelianization(emit_presentation(collapsed, spanning_tree(collapsed)))
    assert before == after


def test_non_elementary_dinf_is_simply_elementary_case2():
    verdict = is_non_elementary(parse_gog(DINF))
    assert verdict == Elementarity("SimplyElementary", 2)


def test_non_elementary_z2z3():
    assert is_non_elementary(parse_gog(Z2Z3)) == Elementarity("NonElementary")


def test_non_elementary_two_loops():
    text = ("group T trivial\nvertex v T\n"
            "edge a1 v -- v group trivial embed_fwd {} embed_bwd {}\n"
            "edge a2 v -- v group trivial embed_fwd {} embed_bwd {}\n")
    assert is_non_elementary(parse_gog(text)) == Elementarity("NonElementary")


def test_single_vertex_simply_elementary_case1():
    verdict = is_non_elementary(parse_gog("group T trivial\nvertex v T\n"))
    assert verdict == Elementarity("SimplyElementary", 1)


def test_loop_iso_simply_elementary_case3():
    verdict = is_non_elementary(parse_gog(LOOP_Z2_ISO))
    assert verdict == Elementarity("SimplyElementary", 3)


def test_reduces_to_case1():
    verdict = is_non_elementary(parse_gog(SEGMENT))
    assert verdict.verdict == "ReducesTo" and verdict.case == 1
    assert len(verdict.sequence) == 1


def test_non_elementarity_invariant_under_renaming():
    rng = random.Random(9)
    base_lines = [
        "group A cyclic 2",
        "group B table [[0,1,2],[1,2,0],[2,0,1]] labels [e,b,b2]",
        "vertex {v1} A gens [a]",
        "vertex {v2} B gens [b]",
        "edge {e1} {v1} -- {v2} group trivial embed_fwd {{}} embed_bwd {{}}",
    ]
    baseline = is_non_elementary(parse_gog("\n".join(base_lines).format(
        v1="v1", v2="v2", e1="e1")))
    for _ in range(20):
        names = {k: f"{k}_{rng.randrange(1000)}" for k in ("v1", "v2", "e1")}
        text = "\n".join(base_lines).format(**names)
        verdict = is_non_elementary(parse_gog(text))
        assert type(verdict) is type(baseline)


def test_collapsed_presentation_is_exactly_z2():
    gog = parse_gog(SEGMENT)
    collapsed = elementary_collapse(gog, "e1")
    p = emit_presentation(collapsed, spanning_tree(collapsed))
    assert p.generators == ("a",)
    assert set(p.relators) == {(1, 1)}


def test_duplicate_group_name_rejected():
    with pytest.raises(GogSyntaxError):
        parse_gog("group A cyclic 2\ngroup A cyclic 3\nvertex v A\n")


def test_unknown_gen_label_carries_line():
    with pytest.raises(GogSyntaxError) as err:
        parse_gog("group A cyclic 2\nvertex v A gens [zz]\n")
    assert err.value.line == 2


def test_unknown_embed_label_rejected():
    text = ("group A cyclic 2\ngroup E cyclic 2\n"
            "vertex v1 A gens [a]\nvertex v2 A gens [a]\n"
            "edge e1 v1 -- v2 group E embed_fwd {a:zzz} embed_bwd {a:a}\n")
    with pytest.raises(GogSyntaxError) as err:
        parse_gog(text)
    assert err.value.line == 5


# ~e1 absorbs v1 into v2: e2 and e3 both have an orientation into v1, so
# their maps are transported into G_{v2}
REV_STAR = """\
group A cyclic 2
group B cyclic 4
group C cyclic 6
group E cyclic 2
vertex v1 A gens [a]
vertex v2 B gens [a]
vertex v3 C gens [a]
edge e1 v1 -- v2 group E embed_fwd {a:a2} embed_bwd {a:a}
edge e2 v1 -- v3 group E embed_fwd {a:a3} embed_bwd {a:a}
edge e3 v3 -- v1 group trivial embed_fwd {} embed_bwd {}
"""

RETARGET = """\
group A cyclic 4
group B cyclic 4
group E cyclic 4
group E2 cyclic 2
vertex v1 A gens [a]
vertex v2 B gens [a]
edge e1 v1 -- v2 group E embed_fwd {a:a} embed_bwd {a:a}
edge e2 v2 -- v2 group E2 embed_fwd {a:a2} embed_bwd {a:a2}
"""

_EDGE_LINE = re.compile(r"edge (\w+) (\w+) -- (\w+) group (\w+) embed_fwd (\{.*?\}) "
                        r"embed_bwd (\{.*?\})")


def _written_the_other_way(text: str, edge: str) -> str:
    """The DSL text with ``edge`` reversed: endpoints and maps swapped."""
    def flip(m):
        if m.group(1) != edge:
            return m.group(0)
        name, left, right, group, fwd, bwd = m.groups()
        return f"edge {name} {right} -- {left} group {group} embed_fwd {bwd} embed_bwd {fwd}"
    return _EDGE_LINE.sub(flip, text)


COLLAPSE_FIXTURES = {**GOG_TEXTS, "rev_star": REV_STAR, "retarget": RETARGET,
                     "dinf_table": DINF, "loop": LOOP_Z2_ISO}


@pytest.mark.parametrize("name", COLLAPSE_FIXTURES)
def test_reverse_collapse_equals_collapse_of_the_reversed_text(name):
    text = COLLAPSE_FIXTURES[name]
    gog = parse_gog(text)
    g = gog.graph
    for y in g.oriented_edges():
        if y % 2 == 0 or g.is_loop(y) or gog.embedding(y).index_in_target() != 1:
            continue
        edge = g.edge_names[y // 2]
        flipped = parse_gog(_written_the_other_way(text, edge))
        assert gog_to_json(elementary_collapse(gog, f"~{edge}")) == \
            gog_to_json(elementary_collapse(flipped, edge))


def test_collapse_fixtures_reach_reverse_collapses():
    """The oracle above is not vacuous: four fixtures collapse along ~e."""
    reverse = [name for name, text in COLLAPSE_FIXTURES.items()
               if any(n.startswith("~") for n in _collapsible_edges(parse_gog(text)))]
    assert sorted(reverse) == ["retarget", "rev", "rev_star", "segment"]


def _exhaustive_collapse_search(gog):
    """The oracle for ``is_non_elementary``: every order of collapses, with
    no memo and no budget."""
    case = _simply_elementary_case(gog)
    if case is not None:
        return Elementarity("SimplyElementary", case)

    def search(current):
        for name in _collapsible_edges(current):
            collapsed = elementary_collapse(current, name)
            c = _simply_elementary_case(collapsed)
            if c is not None:
                return c, (name,)
            deeper = search(collapsed)
            if deeper is not None:
                return deeper[0], (name,) + deeper[1]
        return None

    found = search(gog)
    return (Elementarity("NonElementary") if found is None
            else Elementarity("ReducesTo", *found))


def _with_pendants(text, k):
    """text with k trivial vertices hung on its first vertex v1 by trivial edges."""
    lines = [text.rstrip("\n"), "group T_pendant trivial"]
    for i in range(k):
        lines += [f"vertex p{i} T_pendant",
                  f"edge q{i} v1 -- p{i} group trivial embed_fwd {{}} embed_bwd {{}}"]
    return "\n".join(lines) + "\n"


SEARCH_FIXTURES = {**COLLAPSE_FIXTURES, "s3z4": S3_Z4, "dead_ends": DEAD_ENDS,
                   **{f"z2z3+{k}": _with_pendants(Z2Z3, k) for k in range(8)},
                   **{f"dinf+{k}": _with_pendants(DINF, k) for k in (1, 3, 5)},
                   **{f"segment+{k}": _with_pendants(SEGMENT, k) for k in (1, 4)}}


@pytest.mark.parametrize("name", SEARCH_FIXTURES)
def test_memoised_collapse_search_matches_every_order(name):
    """Verdict, case and first sequence equal the unmemoised search's."""
    gog = parse_gog(SEARCH_FIXTURES[name])
    assert is_non_elementary(gog) == _exhaustive_collapse_search(gog)


def test_collapse_search_decides_12_pendants():
    assert is_non_elementary(parse_gog(_with_pendants(Z2Z3, 12))) == Elementarity("NonElementary")


def test_collapse_search_budget_names_the_phase(tmp_path, capsys):
    """2^20 edge sets: the search stops on its state budget, and exits 1."""
    path = tmp_path / "pendants.gog"
    path.write_text(_with_pendants(Z2Z3, 20))
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "BudgetExceeded: collapse search" in err and "Traceback" not in err


def _with_collapses(gog):
    """gog and every graph of groups a sequence of elementary collapses reaches."""
    out = [gog]
    for current in out:
        out += [elementary_collapse(current, edge) for edge in _collapsible_edges(current)]
    return out


EMBEDDING_FIXTURES = {**COLLAPSE_FIXTURES, "s3z4": S3_Z4}


@pytest.mark.parametrize("name", EMBEDDING_FIXTURES)
def test_embedding_tables_match_coset_oracle(name):
    """decompose and left_coset_reps against groups.cosets, on every finite
    embedding of the input and of each of its collapses (the fixtures hold
    the corpus, SL(2,Z) and the finite-edge-group inputs)."""
    for gog in _with_collapses(parse_gog(EMBEDDING_FIXTURES[name])):
        for emb in gog.embeddings:
            G = emb.target
            if not G.is_finite:
                continue
            image = [emb.apply(h) for h in emb.edge_group.elements()]
            least_right = {g: c[0] for c in cosets(G, image, "right") for g in c}
            for g in G.elements():
                h, r = emb.decompose[g]
                assert G.mul(emb.apply(h), r) == g
                assert r == least_right[g]
                assert emb.right_decompose(g) == (h, r)
            assert emb.left_coset_reps() == \
                tuple(sorted(c[0] for c in cosets(G, image, "left")))


def test_embedding_oracle_covers_collapsed_and_finite_edged_inputs():
    assert {*NAMES, "sl2z", *FINITE_EDGED} <= set(COLLAPSE_FIXTURES)
    collapsed = [name for name, text in COLLAPSE_FIXTURES.items()
                 if len(_with_collapses(parse_gog(text))) > 1]
    assert sorted(collapsed) == ["retarget", "rev", "rev_star", "segment"]
