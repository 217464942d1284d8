from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgam_lab.backends import GroupBackend, reduce_free_word
from amalgam_lab.bass_serre import TreeBall, TreeBallConfig
from amalgam_lab.boundary import dist_to_vertex_coset
from amalgam_lab.dsl import parse_gog
from amalgam_lab.errors import BudgetExceeded
from amalgam_lab.gog import is_non_elementary
from amalgam_lab.separation import coset_elements_in_ball

from conftest import SL2Z, make_fg

letters = st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0)


@given(st.lists(letters, max_size=30))
@settings(max_examples=200, deadline=None)
def test_free_reduction_idempotent(word):
    once = reduce_free_word(word)
    assert reduce_free_word(once) == once


@given(st.lists(letters, max_size=20), st.lists(letters, max_size=20))
@settings(max_examples=200, deadline=None)
def test_free_mul_inverse_cancels(u, v):
    backend = GroupBackend.free(3)
    x = backend.reduce(u)
    y = backend.reduce(v)
    prod = backend.mul(x, y)
    assert backend.mul(prod, backend.inv(y)) == x


# F_2 * Z/2 with the F_2 vertex at the root; the radius-2 ball of F_2 has 17
# elements, so a budget of 12 stops every backend ball of radius >= 2
F2_Z2 = """\
group F free 2
group A cyclic 2
vertex v1 F
vertex v2 A gens [a]
edge e1 v1 -- v2 group trivial embed_fwd {} embed_bwd {}
"""


def _cayley_ball():
    _, _, fg = make_fg("f2", ball_budget=100)
    return lambda: fg.word_metric_ball(6)


def _tree_ball():
    _, _, fg = make_fg("f2")
    return lambda: TreeBall(fg, 6, TreeBallConfig(budget=50))


def _wordlen():
    _, _, fg = make_fg(SL2Z, ball_budget=50)
    x = fg.evaluate_word(["a", "v2.a"] * 6)   # the walk meets it as element 629
    return lambda: fg.wordlen(x)


def _coset_elements():
    _, _, fg = make_fg(F2_Z2, ball_budget=100)
    ball = fg.word_metric_ball(2)
    fg.ball_budget = 12     # the Cayley ball fits; the coset's backend ball does not
    return lambda: coset_elements_in_ball(fg, ball, fg.identity(), 0, 2)


def _dist_to_vertex_coset():
    _, _, fg = make_fg(F2_Z2, ball_budget=12)
    tree = TreeBall(fg, 1, TreeBallConfig(star_radius=1))
    x = fg.evaluate_word(["x1", "x1"])
    return lambda: dist_to_vertex_coset(fg, tree, x, 0)


def _star_params():
    _, _, fg = make_fg(F2_Z2, ball_budget=12)
    return lambda: TreeBall(fg, 1)


@pytest.mark.parametrize("make, walk", [
    (_cayley_ball, "Cayley ball"),
    (_tree_ball, "tree ball"),
    (_wordlen, "wordlen"),
    (_coset_elements, "backend ball"),
    (_dist_to_vertex_coset, "backend ball"),
    (_star_params, "backend ball"),
], ids=["cayley-ball", "tree-ball", "wordlen", "coset-elements-in-ball",
        "dist-to-vertex-coset", "tree-star-params"])
def test_budget_exceeded_names_the_walk(make, walk):
    run = make()
    for _ in range(2):   # a second call after a budget stop stops on the budget again
        with pytest.raises(BudgetExceeded, match=f": {walk}: element budget"):
            run()


def test_dsl_table_labels_and_generator_extension():
    # Z/4 edge group named by a single generator image; the map extends
    text = """
group A table [[0,1,2,3],[1,2,3,0],[2,3,0,1],[3,0,1,2]] labels [e,g,g2,g3]
group B cyclic 4
group E cyclic 4
vertex v1 A gens [g]
vertex v2 B gens [a]
edge e1 v1 -- v2 group E embed_fwd {a:a} embed_bwd {a:g}
"""
    gog = parse_gog(text)
    emb = gog.embedding(0)
    assert [emb.apply(h) for h in range(4)] == [0, 1, 2, 3]
    emb_b = gog.embedding(1)
    assert [emb_b.apply(h) for h in range(4)] == [0, 1, 2, 3]


def test_infinite_factor_corpora_are_non_elementary():
    for name in ("z2z2", "zxz2", "f2", "z2z3"):
        gog, _, _ = make_fg(name)
        assert is_non_elementary(gog).verdict == "NonElementary", name


def test_step_ball_cache_reuse(dinf):
    _, _, fg = dinf
    b1 = fg.word_metric_ball(3)
    b2 = fg.word_metric_ball(3)
    assert b1 is b2   # cached per radius
