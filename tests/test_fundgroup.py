from __future__ import annotations

import itertools
import random
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgam_lab.coset_metric import CosetAutomaton, vertex_lengths
from amalgam_lab.dsl import parse_gog
from amalgam_lab.errors import BaseMismatch, BudgetExceeded
from amalgam_lab.fundgroup import (
    FundamentalGroup,
    NormalForm,
    _finite_words,
    _generators,
    abelianization,
    emit_presentation,
)
from amalgam_lab.gog import bar, spanning_tree

from abelianization_oracle import abelian_invariants
from conftest import ALL_TEXTS, FINITE_EDGED, ORACLES, S3_Z4, SL2Z, make_fg, swept_product

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


# --- presentations ---------------------------------------------------------


def test_presentation_single_z2_vertex():
    gog = parse_gog("group A cyclic 2\nvertex v A gens [a]\n")
    p = emit_presentation(gog, spanning_tree(gog))
    assert p.generators == ("a",)
    assert set(p.relators) == {(1, 1)}


def test_presentation_dinf_exact(dinf):
    gog, sd, _ = dinf
    p = emit_presentation(gog, sd)
    assert p.generators == ("a", "b")
    assert set(p.relators) == {(1, 1), (2, 2)}


def test_presentation_one_loop_is_Z():
    gog = parse_gog("group T trivial\nvertex v T\n"
                    "edge e1 v -- v group trivial embed_fwd {} embed_bwd {}\n")
    p = emit_presentation(gog, spanning_tree(gog))
    assert len(p.generators) == 1
    assert p.relators == ()
    assert abelianization(p) == (1, ())


def test_presentation_z2z3(z2z3):
    gog, sd, _ = z2z3
    p = emit_presentation(gog, sd)
    assert set(p.relators) == {(1, 1), (2, 2, 2)}


# --- group law --------------------------------------------------------------


def test_identity_and_inverse(dinf):
    _, _, fg = dinf
    gs = fg.generating_set()
    a, b = gs.elements
    x = fg.multiply(a, b)
    assert fg.multiply(x, fg.invert(x)).is_identity()
    assert fg.invert(fg.invert(x)) == x


def test_dinf_abab(dinf):
    _, _, fg = dinf
    a, b = fg.generating_set().elements
    abab = a * b * a * b
    assert abab.syllable_length == 4
    assert not (abab * abab).is_identity()


def test_z2z3_vertex_arithmetic(z2z3):
    gog, _, fg = z2z3
    _, b = fg.generating_set().elements
    b2 = fg.multiply(b, b)
    # b*b is the single vertex-group element b^2, not a longer word
    assert b2 == fg.vertex_element(1, gog.vertex_groups[1].index_of("b2"))
    assert fg.multiply(b2, b).is_identity()


def test_multiply_associative_random(z2z3):
    _, _, fg = z2z3
    ball = fg.word_metric_ball(4)
    rng = random.Random(5)
    for _ in range(200):
        x, y, z = (ball.elements[rng.randrange(len(ball.elements))] for _ in range(3))
        assert fg.multiply(fg.multiply(x, y), z) == fg.multiply(x, fg.multiply(y, z))


def test_base_mismatch_raises(dinf, z2z3):
    _, _, fg1 = dinf
    _, _, fg2 = z2z3
    with pytest.raises(BaseMismatch):
        fg1.multiply(fg1.identity(), fg2.identity())


# --- word metric and balls ----------------------------------------------------


def test_dinf_ball3_exact_elements(dinf):
    _, _, fg = dinf
    ball = fg.word_metric_ball(3)
    expected = {
        fg.evaluate_word(w)
        for w in ([], ["a"], ["b"], ["a", "b"], ["b", "a"],
                  ["a", "b", "a"], ["b", "a", "b"])
    }
    assert set(ball.elements) == expected
    assert len(ball) == 7


def test_trivial_ball(trivial):
    _, _, fg = trivial
    assert len(fg.word_metric_ball(5)) == 1


def test_cayley_ball_lives_beside_its_constructor():
    """CayleyBall is defined in the group module, next to word_metric_ball,
    so that module imports nothing from separation; the package and
    separation still export it."""
    import inspect

    import amalgam_lab
    from amalgam_lab import fundgroup, separation

    assert "from .separation" not in inspect.getsource(fundgroup)
    assert amalgam_lab.CayleyBall is separation.CayleyBall is fundgroup.CayleyBall
    assert fundgroup.CayleyBall.__module__ == "amalgam_lab.fundgroup"


def test_f2_ball2_is_17(f2):
    _, _, fg = f2
    ball = fg.word_metric_ball(2)
    assert len(ball) == 17
    assert ball.layer_sizes == (1, 4, 12)


@pytest.mark.parametrize("name", ["dinf", "z2z3", "f2", "zxz2"])
def test_ball_sizes_match_oracle_to_6(name):
    _, _, fg = make_fg(name)
    oracle = ORACLES[name]
    layers, _ = oracle.ball_layers(6)
    ball = fg.word_metric_ball(6)
    assert list(ball.layer_sizes) == layers


@pytest.mark.parametrize("name", ["dinf", "z2z3", "f2", "zxz2"])
def test_normal_forms_biject_with_oracle(name):
    """Complete cross-validation up to word length 5: evaluation of every
    generator string agrees with the independent free-product model."""
    _, _, fg = make_fg(name)
    oracle = ORACLES[name]
    fg_steps = list(fg.generating_set().steps)
    or_steps = oracle.steps()
    assert len(fg_steps) == len(or_steps)
    to_nf: dict = {}
    to_or: dict = {}
    for length in range(0, 5):
        for combo in itertools.product(range(len(or_steps)), repeat=length):
            o = oracle.identity
            x = fg.identity()
            for i in combo:
                o = oracle.mul(o, or_steps[i])
                x = fg.multiply(x, fg_steps[i])
            if o in to_nf:
                assert to_nf[o] == x, f"oracle-equal words disagree: {combo}"
            else:
                to_nf[o] = x
            if x in to_or:
                assert to_or[x] == o, f"nf-equal words disagree in oracle: {combo}"
            else:
                to_or[x] = o


@pytest.mark.parametrize("name,radius", [
    ("dinf", 8), ("z2z3", 6), ("f2", 5), ("zxz2", 5), ("z2z2", 4),
])
def test_wordlen_agrees_with_bfs_depth(name, radius):
    _, _, fg = make_fg(name)
    ball = fg.word_metric_ball(radius)
    for k in range(radius + 1):
        for x in ball.sphere(k):
            assert fg.wordlen(x) == k


def test_left_invariance(z2z3):
    _, _, fg = z2z3
    ball = fg.word_metric_ball(4)
    rng = random.Random(11)
    for _ in range(200):
        g, x, y = (ball.elements[rng.randrange(len(ball.elements))] for _ in range(3))
        assert fg.dist(x, y) == fg.dist(fg.multiply(g, x), fg.multiply(g, y))


def test_wordlen_fallback_matches_fast_path():
    # amalgam with a nontrivial edge group exercises the BFS fallback
    text = """
group A cyclic 4
group B cyclic 4
group E cyclic 2
vertex v1 A gens [a]
vertex v2 B gens [a]
edge e1 v1 -- v2 group E embed_fwd {a:a2} embed_bwd {a:a2}
"""
    gog = parse_gog(text)
    sd = spanning_tree(gog)
    fg = FundamentalGroup(gog, sd)
    assert not fg._fast_metric
    ball = fg.word_metric_ball(5)
    for k in range(6):
        for x in ball.sphere(k):
            assert fg.wordlen(x) == k


def _plain_bfs_lengths(fg, radius: int) -> dict:
    """Oracle: |x| for every x of the radius ball, from a dict-and-list
    breadth-first walk over the steps written here, not from
    ``groups.Walk``, which ``wordlen`` itself runs on."""
    steps = fg.generating_set().steps
    lengths, frontier = {fg.identity(): 0}, [fg.identity()]
    for r in range(1, radius + 1):
        nxt = []
        for a in frontier:
            for s in steps:
                b = fg.multiply(a, s)
                if b not in lengths:
                    lengths[b] = r
                    nxt.append(b)
        frontier = nxt
    return lengths


@pytest.mark.parametrize("name,radius", [("sl2z", 10), ("z6z9", 10), ("hnn6", 6), ("chain", 6)])
def test_wordlen_fallback_agrees_with_a_plain_bfs(name, radius):
    """The global-walk ``wordlen`` of a finite edge group, asked from the
    outer sphere inward, so that the walk first grows to the whole ball."""
    _, _, fg = make_fg(SL2Z if name == "sl2z" else FINITE_EDGED[name])
    assert not fg._fast_metric
    lengths = _plain_bfs_lengths(fg, radius)
    for x in sorted(lengths, key=lengths.get, reverse=True):
        assert fg.wordlen(x) == lengths[x], x.display()


@pytest.mark.parametrize("name", ALL_TEXTS)
def test_walk_records_layers_and_parents(name):
    """Grown to radius 4, the walk's layers are the oracle's spheres, and
    each element is its recorded parent, one layer up, times its recorded
    step."""
    _, _, fg = make_fg(ALL_TEXTS[name])
    steps = fg.generating_set().steps
    walk = fg._walk(steps, "walk").run(4)
    lengths = _plain_bfs_lengths(fg, 4)
    spheres = [sum(1 for k in lengths.values() if k == r)
               for r in range(len(walk.layer_starts) - 1)]
    assert walk.layer_starts == [0, *itertools.accumulate(spheres)]
    assert len(spheres) == 5 or spheres[-1] == 0     # a finite group stops on an empty layer
    assert set(walk.elements) == set(lengths)
    for q, x in enumerate(walk.elements):
        assert walk.index[x] == q
        if q:
            p = walk.parent[q]
            assert fg.multiply(walk.elements[p], steps[walk.step[q]]) == x
            assert lengths[walk.elements[p]] == lengths[x] - 1


def test_wordlen_after_a_budget_stop_starts_a_new_walk():
    """A walk that stops on the budget mid-layer is dropped: with the budget
    raised, the next call walks afresh and reads the oracle's length."""
    _, _, fg = make_fg(SL2Z, ball_budget=50)
    x = fg.evaluate_word(["a", "v2.a"] * 6)
    with pytest.raises(BudgetExceeded, match="wordlen"):
        fg.wordlen(x)
    fg.ball_budget = 1_000
    lengths = _plain_bfs_lengths(fg, 12)
    assert fg.wordlen(x) == lengths[x] == 12
    for y in lengths:
        assert fg.wordlen(y) == lengths[y]


def test_wordlen_walk_forms_no_inverse_pair_twice(monkeypatch):
    """Once x·s = y is formed, the walk knows y·s^-1 = x and never forms it,
    and no product is formed twice."""
    _, _, fg = make_fg(SL2Z)
    steps = fg.generating_set().steps
    inverse = {s: fg.invert(s) for s in steps}
    far = fg.evaluate_word(["a", "v2.a"] * 5)
    formed, multiply = [], fg.multiply

    def recording(x, y):
        formed.append((x, y))
        return multiply(x, y)
    monkeypatch.setattr(fg, "multiply", recording)
    assert fg.wordlen(far) == 10
    assert formed and {s for _, s in formed} <= set(steps)
    assert len(set(formed)) == len(formed)
    products = set(formed)
    for x, s in formed:
        assert (multiply(x, s), inverse[s]) not in products, (x.display(), s.display())


# --- coset lengths -----------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_TEXTS)
def test_vertex_lengths_are_lengths_in_the_group(name):
    """L_v(g) equals the walk's |vertex_element(v, g)| on every finite vertex."""
    gog, sd, fg = make_fg(ALL_TEXTS[name])
    lengths = vertex_lengths(gog, sd)
    for v, G in enumerate(gog.vertex_groups):
        if G.is_finite:
            for g in G.elements():
                assert lengths[v](g) == fg.wordlen(fg.vertex_element(v, g)), (v, g)


def test_vertex_lengths_see_through_the_edge_group():
    """On the benchmark's SL(2,Z), b^3 has length 3 over S_v = {b} but equals
    a^2 in Gamma, of length 2."""
    gog = parse_gog((PERFBENCH / "sl2z.gog").read_text())
    sd = spanning_tree(gog)
    B = gog.vertex_groups[1]
    b3 = B.index_of("b3")
    assert len(_finite_words(B, [elem for _, elem in gog.generating_sets[1]])[b3]) == 3
    assert vertex_lengths(gog, sd)[1](b3) == 2


@pytest.mark.parametrize("name", [name for name in ALL_TEXTS
                                  if parse_gog(ALL_TEXTS[name]).all_edge_groups_trivial])
def test_vertex_lengths_are_the_generator_lengths_without_edge_groups(name):
    """With trivial edge groups no edge move lowers an entry, so L_v is the
    length over S_v, the table ``wordlen``'s run reads."""
    gog, sd, _ = make_fg(ALL_TEXTS[name])
    lengths = vertex_lengths(gog, sd)
    for v, (G, genset) in enumerate(zip(gog.vertex_groups, gog.generating_sets)):
        if G.is_finite:
            words = _finite_words(G, [elem for _, elem in genset])
            assert [lengths[v](g) for g in G.elements()] == \
                [len(words[g]) for g in G.elements()], v


@pytest.mark.parametrize("name,radius", [("sl2z", 10), ("z6z9", 10), ("s3z4", 10),
                                         ("hnn6", 6), ("chain", 6)])
def test_coset_length_from_the_trivial_start_is_wordlen(name, radius):
    """With H = {1} the min-plus programme is the word length: on every
    element of the ball, against the walk."""
    _, _, fg = make_fg(ALL_TEXTS[name])
    length = fg.coset_distances(fg.identity(), (fg.identity(),))
    for x in fg.word_metric_ball(radius).elements:
        assert length(x) == fg.wordlen(x), x.display()


@pytest.mark.parametrize("name", ["zxz2", "z2z2", "z2z3", "dinf"])
def test_coset_length_reads_infinite_vertex_groups_without_a_step(name, monkeypatch):
    """A piece at a vertex whose edge groups are all trivial, finite or
    infinite, adds L_v(g) plus its letter in the run itself.  With H = {1}
    the programme is the word length on every element of the radius-6 ball,
    read off the ball's layers (``wordlen`` is this run here), and neither
    the first pass nor a second calls ``step``."""
    _, _, fg = make_fg(name)
    steps = []
    step = CosetAutomaton.step

    def counted(self, *args):
        steps.append(args)
        return step(self, *args)
    monkeypatch.setattr(CosetAutomaton, "step", counted)
    length = fg.coset_distances(fg.identity(), (fg.identity(),))
    ball = fg.word_metric_ball(6)
    starts = ball.layer_starts
    for k in range(7):
        for p in range(starts[k], starts[k + 1]):
            assert length(ball.elements[p]) == k, ball.elements[p].display()
    for x in ball.elements:
        fg.coset_distances(fg.identity(), (fg.identity(),))(x)
    assert steps == []


@pytest.mark.parametrize("name", ALL_TEXTS)
def test_coset_distances_equal_coset_length_of_the_product(name):
    """The map of ``coset_distances(left, H)`` reads y across the junction of
    left and y; it equals ``coset_distances(1, H)`` of the product formed,
    and the least length of h·left·y over the members h, each from {1}.
    H ranges over {1}, every edge subgroup and every finite vertex subgroup,
    some of them off the root group; left and y come from the radius-4
    ball, and y = left^-1 cancels all of left.  The products are formed by
    ``swept_product``, which runs none of the junction loop that both
    ``multiply`` and the map share."""
    gog, _, fg = make_fg(ALL_TEXTS[name])
    elements = fg.word_metric_ball(4).elements
    rng = random.Random(name)
    lefts = [fg.identity(), *rng.sample(elements, min(5, len(elements)))]
    ys = rng.sample(elements, min(150, len(elements)))
    subgroups = [(fg.identity(),),
                 *(fg.edge_subgroup_elements(k) for k in range(gog.graph.n_edges)),
                 *(fg.vertex_subgroup_elements(v)
                   for v, G in enumerate(gog.vertex_groups) if G.is_finite)]
    length = fg.coset_distances(fg.identity(), subgroups[0])
    for H in subgroups:
        whole = fg.coset_distances(fg.identity(), H)
        for left in lefts:
            distance = fg.coset_distances(left, H)
            for y in [*ys, fg.invert(left)]:
                xy = swept_product(fg, left, y)
                d = min(length(swept_product(fg, h, xy)) for h in H)
                assert distance(y) == whole(xy) == d, (left.display(), y.display())


# --- Britton reduction ------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_TEXTS)
def test_vertex_element_removes_every_pinch(name, monkeypatch):
    """``vertex_element`` spells g in G_v as the tree path to v, g, and the
    path back.  chain is the one input with a tree path of two edges, and
    there a pinch can cascade: a^6 in Z/12 lies in the Z/4 edge group and
    comes back into Z/8 as a^4, which lies in the Z/2 edge group and comes
    back into Z/4 as a^2, so the word loses two pinches.  A one-pinch
    shortcut would leave it unreduced.  Every element equals its S_v
    spelling multiplied out."""
    gog, sd, fg = make_fg(ALL_TEXTS[name])
    fg.generating_set()  # built first: its generators are vertex elements too
    pinches = []
    reduce = FundamentalGroup._britton_reduce

    def counted(self, g0, tail):
        before = len(tail)
        g0, tail = reduce(self, g0, tail)
        pinches.append((before - len(tail)) // 2)
        return g0, tail
    monkeypatch.setattr(FundamentalGroup, "_britton_reduce", counted)
    for v, G in enumerate(gog.vertex_groups):
        if not G.is_finite:
            continue
        names = [label for label, u, _ in _generators(gog, sd) if u == v]
        for g, word in _finite_words(G, [h for _, h in gog.generating_sets[v]]).items():
            labels = [names[l - 1] if l > 0 else f"{names[-l - 1]}^-1" for l in word]
            assert fg.vertex_element(v, g) == fg.evaluate_word(labels), (v, g, labels)
    if name == "chain":
        assert max(pinches) == 2
    else:
        assert max(pinches, default=0) <= 1


# --- coset membership ------------------------------------------------------------


def test_coset_membership_reflexive(dinf):
    _, _, fg = dinf
    a, b = fg.generating_set().elements
    x = a * b
    assert fg.coset_membership(x, 0, x)
    assert fg.coset_membership(x, 1, x)


def test_coset_membership_dinf(dinf):
    _, _, fg = dinf
    a, b = fg.generating_set().elements
    assert fg.coset_membership(a, 0, fg.identity())
    assert not fg.coset_membership(b, 0, fg.identity())


def test_coset_membership_z2z3(z2z3):
    _, _, fg = z2z3
    a, b = fg.generating_set().elements
    assert fg.coset_membership(a * b, 1, a)


def test_backend_vertex_subgroup_membership(z2z2):
    _, _, fg = z2z2
    x1 = fg.vertex_element(0, (1, 0))
    y1 = fg.vertex_element(1, (0, 2))
    assert fg.in_vertex_subgroup(x1, 0)
    assert not fg.in_vertex_subgroup(x1, 1)
    assert fg.in_vertex_subgroup(y1, 1)
    assert not fg.in_vertex_subgroup(y1, 0)
    assert fg.in_vertex_subgroup(fg.identity(), 1)
    mixed = fg.multiply(x1, y1)
    assert not fg.in_vertex_subgroup(mixed, 0)
    assert not fg.in_vertex_subgroup(mixed, 1)


# --- abelianization against an independent construction ----------------------------


def expected_abelianization(gog, sd):
    """Direct sum of independently computed vertex abelianizations, modulo
    the edge identifications, presented over all vertex-group elements."""
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form

    cols: dict = {}
    n_cols = 0
    for v in range(gog.graph.n_vertices):
        backend = gog.vertex_groups[v]
        if backend.is_finite:
            for e in backend.elements():
                cols[(v, e)] = n_cols
                n_cols += 1
        else:
            for i in range(backend.rank):
                cols[(v, i)] = n_cols
                n_cols += 1
    stable = {}
    for k in range(gog.graph.n_edges):
        if k not in sd.tree_edges:
            stable[k] = n_cols
            n_cols += 1

    rows = []

    def elem_row(v, elem, sign):
        row = [0] * n_cols
        backend = gog.vertex_groups[v]
        if backend.is_finite:
            row[cols[(v, elem)]] = sign
        else:
            for i, c in enumerate(elem):
                row[cols[(v, i)]] = sign * c
        return row

    for v in range(gog.graph.n_vertices):
        backend = gog.vertex_groups[v]
        if backend.is_finite:
            G = backend
            for x in G.elements():
                for y in G.elements():
                    row = [0] * n_cols
                    row[cols[(v, x)]] += 1
                    row[cols[(v, y)]] += 1
                    row[cols[(v, G.mul(x, y))]] -= 1
                    rows.append(row)
    for k in range(gog.graph.n_edges):
        y = 2 * k
        eg = gog.edge_group(y)
        for h in eg.elements():
            fwdv = gog.graph.omega[y]
            bwdv = gog.graph.alpha[y]
            r1 = elem_row(fwdv, gog.embedding(y).apply(h), 1)
            r2 = elem_row(bwdv, gog.embedding(y + 1).apply(h), -1)
            rows.append([x1 + x2 for x1, x2 in zip(r1, r2)])

    if not rows:
        return n_cols, ()
    snf = smith_normal_form(Matrix(rows))
    diag = [abs(snf[i, i]) for i in range(min(snf.shape))]
    nonzero = [d for d in diag if d != 0]
    return n_cols - len(nonzero), tuple(sorted(d for d in nonzero if d > 1))


@pytest.mark.parametrize("name", ["trivial", "dinf", "z2z3", "f2", "zxz2", "z2z2", "zz"])
def test_abelianization_matches_independent_construction(name):
    gog, sd, _ = make_fg(name)
    got = abelianization(emit_presentation(gog, sd))
    assert got == expected_abelianization(gog, sd)


def test_abelian_invariants_feed_the_oracle(dinf):
    # the finite-group side of the oracle is itself exact
    gog, _, _ = dinf
    assert abelian_invariants(gog.vertex_groups[0]) == (2,)


@pytest.mark.parametrize("name", ["dinf", "z2z3", "f2", "zxz2"])
def test_normal_form_uniqueness_random_words_length_12(name):
    _, _, fg = make_fg(name)
    oracle = ORACLES[name]
    fg_steps = list(fg.generating_set().steps)
    or_steps = oracle.steps()
    rng = random.Random(101)
    to_nf, to_or = {}, {}
    for _ in range(300):
        combo = [rng.randrange(len(or_steps)) for _ in range(rng.randrange(13))]
        o, x = oracle.identity, fg.identity()
        for i in combo:
            o = oracle.mul(o, or_steps[i])
            x = fg.multiply(x, fg_steps[i])
        assert to_nf.setdefault(o, x) == x
        assert to_or.setdefault(x, o) == o


# --- the junction product against the full normalize sweep ---------------------

EDGED = {**{name: name for name in ("dinf", "f2", "z2z2", "z2z3", "zxz2")},
         "sl2z": SL2Z, **FINITE_EDGED, "s3z4": S3_Z4}
FG = {name: make_fg(source)[2] for name, source in EDGED.items()}


def _vertex_elements(backend):
    """Elements of a vertex group, the identity drawn about a third of the time."""
    if backend.is_finite:
        others = st.sampled_from(list(backend.elements()))
    elif backend.kind == "free_abelian":
        others = st.tuples(*[st.integers(-2, 2)] * backend.rank)
    else:
        letters = [l for i in range(1, backend.rank + 1) for l in (i, -i)]
        others = st.lists(st.sampled_from(letters), max_size=4).map(backend.reduce)
    return st.one_of(st.just(backend.identity()), others)


@st.composite
def canonical_words(draw, fg):
    """normalize of a random closed walk at the root with random vertex elements."""
    g = fg.gog.graph
    v, tail = fg.root, []
    for _ in range(draw(st.integers(0, 10))):
        e = draw(st.sampled_from([e for e in range(2 * g.n_edges) if g.alpha[e] == v]))
        v = g.omega[e]
        tail.append((e, draw(_vertex_elements(fg.gog.vertex_groups[v]))))
    for e in reversed(fg._tree_paths[v]):
        tail.append((bar(e), draw(_vertex_elements(fg.gog.vertex_groups[g.omega[bar(e)]]))))
    return fg.normalize(draw(_vertex_elements(fg.root_group)), tail)


@pytest.mark.parametrize("name", EDGED)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_multiply_equals_full_normalize(name, data):
    fg = FG[name]
    x, z = data.draw(canonical_words(fg)), data.draw(canonical_words(fg))
    # y = x^-1 z cancels against all of x down to where x and z part
    y = swept_product(fg, fg.invert(x), z)
    for a, b in ((x, z), (z, x), (x, y), (y, x), (x, fg.invert(x))):
        assert fg.multiply(a, b) == swept_product(fg, a, b)
    assert fg.multiply(x, y) == z


def _random_vertex_element(backend, rng):
    """An element of a vertex group, the identity about a third of the time."""
    if rng.random() < 1 / 3:
        return backend.identity()
    if backend.is_finite:
        return rng.choice(list(backend.elements()))
    if backend.kind == "free_abelian":
        return tuple(rng.randint(-2, 2) for _ in range(backend.rank))
    letters = [l for i in range(1, backend.rank + 1) for l in (i, -i)]
    return backend.reduce([rng.choice(letters) for _ in range(rng.randrange(5))])


def _random_canonical(fg, rng):
    """normalize of a random closed walk at the root with random vertex
    elements: ``canonical_words`` drawn from a seeded ``random.Random``."""
    g, groups = fg.gog.graph, fg.gog.vertex_groups
    v, tail = fg.root, []
    for _ in range(rng.randrange(11) if g.n_edges else 0):
        e = rng.choice([e for e in range(2 * g.n_edges) if g.alpha[e] == v])
        v = g.omega[e]
        tail.append((e, _random_vertex_element(groups[v], rng)))
    for e in reversed(fg._tree_paths[v]):
        tail.append((bar(e), _random_vertex_element(groups[g.omega[bar(e)]], rng)))
    return fg.normalize(_random_vertex_element(fg.root_group, rng), tail)


# Gamma is the root vertex group, so no canonical word has a tail
ROOT_ONLY = {"trivial", "zz", "segment"}


@pytest.mark.parametrize("name", ALL_TEXTS)
def test_multiply_joins_the_tails_when_the_junction_cannot_pinch(name):
    """Pairs with y's g0 = 1 against the full normalize, split by whether the
    junction can pinch (y's first edge is bar of x's last): the others are
    the two tails joined.  Each such y also goes in with each non-identity
    generator of the root group as its g0, which always takes the loop."""
    _, _, fg = make_fg(ALL_TEXTS[name])
    rng = random.Random(34)
    words = [_random_canonical(fg, rng) for _ in range(40)]
    one = fg.identity().g0
    heads = [g for _, g in fg.gog.generating_sets[fg.root] if g != one]
    classes = {True: 0, False: 0}
    for x in words:
        for z in (*words[:10], fg.invert(x)):
            y = NormalForm(fg, one, z.tail)
            classes[bool(x.tail and y.tail) and y.tail[0][0] == bar(x.tail[-1][0])] += 1
            assert fg.multiply(x, y) == swept_product(fg, x, y)
            for g in heads:
                y = NormalForm(fg, g, z.tail)
                assert fg.multiply(x, y) == swept_product(fg, x, y)
    assert classes[False] and bool(classes[True]) == (name not in ROOT_ONLY)


@pytest.mark.parametrize("name", ["f2", SL2Z], ids=["f2", "sl2z"])
def test_word_metric_ball_never_normalizes(name, monkeypatch):
    """The junction product never sweeps a whole word, with or without
    non-trivial edge groups."""
    _, _, fg = make_fg(name)
    fg.generating_set()
    calls = []
    normalize = FundamentalGroup.normalize

    def counted(self, g0, tail):
        calls.append(len(tail))
        return normalize(self, g0, tail)
    monkeypatch.setattr(FundamentalGroup, "normalize", counted)
    ball = fg.word_metric_ball(5)
    assert len(ball) > 1
    assert calls == []


@pytest.mark.parametrize("name", EDGED)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_invert_equals_normalize_of_reversed_word(name, data):
    """invert skips the Britton pass; normalize of the reversed word runs it."""
    fg = FG[name]
    x = data.draw(canonical_words(fg))
    omega = fg.gog.graph.omega
    elems = [x.g0] + [g for _, g in x.tail]
    reversed_tail = [(bar(e), fg.gog.vertex_groups[omega[bar(e)]].inv(elems[i]))
                     for i, (e, _) in reversed(list(enumerate(x.tail)))]
    expected = fg.normalize(fg.root_group.inv(elems[-1]), reversed_tail)
    assert fg.invert(x) == expected
    assert fg.multiply(x, expected).is_identity()


# --- one generating set S, one word table per finite vertex group ---------------

# the inputs where a vertex generator's label was taken and gets its vertex prefix
PREFIXED = {"z2z2", "sl2z", "z6z9", "hnn6", "chain", "rev", "dead_ends", "stable_clash"}


@pytest.mark.parametrize("name", ALL_TEXTS)
def test_generating_set_names_the_presentation_generators(name):
    """The names of S are distinct, and each one evaluates to its own
    generator, also where a vertex label equals a stable letter's name."""
    gog, sd, fg = make_fg(ALL_TEXTS[name])
    gs = fg.generating_set()
    assert gs.labels == emit_presentation(gog, sd).generators
    assert len(set(gs.labels)) == len(gs.labels)
    assert any("." in label for label in gs.labels) == (name in PREFIXED)
    assert [fg.evaluate_word([label]) for label in gs.labels] == list(gs.elements)


@pytest.mark.parametrize("name", ALL_TEXTS)
def test_presentation_relators_hold_in_the_group(name):
    """Every relator, multiplied out over S, is the identity of Gamma."""
    gog, sd, fg = make_fg(ALL_TEXTS[name])
    p = emit_presentation(gog, sd)
    for rel in p.relators:
        word = [p.generators[abs(l) - 1] + ("" if l > 0 else "^-1") for l in rel]
        assert fg.evaluate_word(word).is_identity(), word


def _distances(G, gens) -> dict[int, int]:
    """Plain breadth-first distances from the identity over gens and inverses."""
    dist, queue = {G.identity_index: 0}, deque([G.identity_index])
    while queue:
        a = queue.popleft()
        for s in gens:
            for b in (G.mul(a, s), G.mul(a, G.inv(s))):
                if b not in dist:
                    dist[b] = dist[a] + 1
                    queue.append(b)
    return dist


@pytest.mark.parametrize("name", ALL_TEXTS)
def test_finite_words_spell_each_element_geodesically(name):
    gog, _, _ = make_fg(ALL_TEXTS[name])
    for v, (G, genset) in enumerate(zip(gog.vertex_groups, gog.generating_sets)):
        if not G.is_finite:
            continue
        gens = [elem for _, elem in genset]
        words, dist = _finite_words(G, gens), _distances(G, gens)
        assert sorted(words) == list(G.elements())
        for g, word in words.items():
            x = G.identity_index
            for l in word:
                x = G.mul(x, gens[l - 1] if l > 0 else G.inv(gens[-l - 1]))
            assert x == g
            assert len(word) == dist[g]
