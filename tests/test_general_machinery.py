"""A two-vertex graph of groups with both a nontrivial amalgamated tree edge
and a nontrivial HNN edge, driving every code path at once: finite transversals,
stable letters, conjugated edge subgroups, the BFS metric fallback."""

from __future__ import annotations

import random

from amalgam_lab.bass_serre import TreeBall, tiling_tree
from amalgam_lab.dsl import parse_gog
from amalgam_lab.fundgroup import FundamentalGroup, abelianization, emit_presentation
from amalgam_lab.gog import bar, spanning_tree

from conftest import degree

TEXT = """
# Z/4 and Z/6 amalgamated over Z/2 along a tree edge, plus an HNN edge
# conjugating the same Z/2 subgroups
group A cyclic 4
group B table [[0,1,2,3,4,5],[1,2,3,4,5,0],[2,3,4,5,0,1],[3,4,5,0,1,2],[4,5,0,1,2,3],[5,0,1,2,3,4]] labels [e,b,b2,b3,b4,b5]
group E cyclic 2
vertex v1 A gens [a]
vertex v2 B gens [b]
edge t1 v1 -- v2 group E embed_fwd {a:b3} embed_bwd {a:a2}
edge h1 v1 -- v2 group E embed_fwd {a:b3} embed_bwd {a:a2}
"""


def build():
    gog = parse_gog(TEXT)
    sd = spanning_tree(gog)
    return gog, sd, FundamentalGroup(gog, sd)


def test_structure():
    gog, sd, fg = build()
    assert sd.tree_edges == frozenset({0})
    assert not gog.all_edge_groups_trivial
    gs = fg.generating_set()
    assert gs.labels == ("a", "b", "s_h1")


def test_presentation_and_abelianization():
    gog, sd, _ = build()
    p = emit_presentation(gog, sd)
    # relator exponent matrix over (a, b): rows 4a, 6b, 2a-3b (twice);
    # the stable letter survives as a free factor: Z + Z/12
    assert abelianization(p) == (1, (12,))


def test_canonical_invariants_and_group_law():
    gog, _, fg = build()
    ball = fg.word_metric_ball(4)
    for k in range(5):
        for x in ball.sphere(k):
            assert fg.wordlen(x) == k
            assert fg.multiply(x, fg.invert(x)).is_identity()
            for i, (e, g) in enumerate(x.tail):
                emb = gog.embedding(e)
                assert emb.right_decompose(g)[1] == g
                if i + 1 < len(x.tail) and x.tail[i + 1][0] == bar(e):
                    assert not emb.contains(g)
    rng = random.Random(7)
    elems = ball.elements
    for _ in range(300):
        x, y, z = (elems[rng.randrange(len(elems))] for _ in range(3))
        assert fg.multiply(fg.multiply(x, y), z) == fg.multiply(x, fg.multiply(y, z))


def test_stable_letter_conjugates_edge_subgroup():
    gog, _, fg = build()
    s = fg.letter(2)     # forward orientation of h1
    a2 = fg.vertex_element(0, 2)      # a^2 in Z/4
    b3 = fg.vertex_element(1, 3)      # b^3 in Z/6
    # tree edge makes the two embedded images equal...
    assert a2 == b3
    # ...and the HNN relation conjugates one onto the other
    lhs = fg.multiply(fg.multiply(fg.invert(s), a2), s)
    assert lhs == b3


def test_tree_and_tiling():
    _, _, fg = build()
    tb = TreeBall(fg, 4)
    assert sum(len(tb.children(v)) for v in tb.vertices) == len(tb.vertices) - 1
    for v in tb.vertices:
        if tb.depth(v) < tb.radius:
            # each vertex meets both edge pairs: 2+2 and 3+3
            assert degree(tb, v) == (4 if tb.vtype[v] == 0 else 6)
    tt = tiling_tree(tb)
    assert tt.connected and len(tt.edge_ids) == 2


def test_ends_is_growing():
    from amalgam_lab.separation import ends_estimate

    _, _, fg = build()
    report = ends_estimate(fg, [3, 5], margin=2)
    assert report.verdict == "infinity-growing"
