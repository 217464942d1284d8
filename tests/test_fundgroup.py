from __future__ import annotations

import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgam_lab.dsl import parse_gog
from amalgam_lab.errors import BaseMismatch
from amalgam_lab.fundgroup import (
    FundamentalGroup,
    _finite_words,
    abelianization,
    emit_presentation,
)
from amalgam_lab.gog import bar, spanning_tree
from amalgam_lab.groups import abelian_invariants

from conftest import ALL_TEXTS, FINITE_EDGED, ORACLES, S3_Z4, SL2Z, make_fg


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


def _swept_product(fg, x, y):
    """The general product: merge the junction, then normalize the whole word."""
    if not x.tail:
        return fg.normalize(fg.root_group.mul(x.g0, y.g0), y.tail)
    en, gn = x.tail[-1]
    merged = fg.gog.vertex_groups[fg.gog.graph.omega[en]].mul(gn, y.g0)
    return fg.normalize(x.g0, x.tail[:-1] + ((en, merged),) + y.tail)


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
    y = _swept_product(fg, fg.invert(x), z)
    for a, b in ((x, z), (z, x), (x, y), (y, x), (x, fg.invert(x))):
        assert fg.multiply(a, b) == _swept_product(fg, a, b)
    assert fg.multiply(x, y) == z


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
    gog, _, fg = make_fg(ALL_TEXTS[name])
    lengths, _ = fg._length_tables()
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
            assert len(word) == dist[g] == lengths[v](g)
