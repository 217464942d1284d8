from __future__ import annotations

import random

import pytest

from amalgam_lab.bass_serre import TreeBall
from amalgam_lab.corpus import NAMES
from amalgam_lab.errors import Inconclusive, PreconditionUnmet
from amalgam_lab.separation import (
    coset_elements_in_ball,
    diameter,
    edge_coset_distance,
    ends_estimate,
    r_components,
    r_separates,
    set_distance,
    thicken,
    verify_K_construction,
    verify_cayley_separation,
    verify_thickening_lemma,
)

from conftest import FINITE_EDGED, SEGMENT, SL2Z, components, make_fg


def test_r_components_whole_ball_one_component(dinf):
    _, _, fg = dinf
    ball = fg.word_metric_ball(4)
    assert r_components(ball, R=2 * 4) == [0] * len(ball)


def test_r_components_dinf_split_at_identity(dinf):
    _, _, fg = dinf
    ball = fg.word_metric_ball(6)
    label = r_components(ball, R=1, excluded={fg.identity()})
    assert label[ball.index[fg.identity()]] == -1
    assert sorted(len(c) for c in components(ball, label)) == [6, 6]


def test_r_components_z2_plane_stays_connected(zz):
    _, _, fg = zz
    ball = fg.word_metric_ball(6)
    label = r_components(ball, R=1, excluded={fg.identity()})
    assert len(components(ball, label)) == 1


def test_r_separates_empty_set_is_false(dinf):
    _, _, fg = dinf
    ball = fg.word_metric_ball(5)
    a, b = fg.generating_set().elements
    assert not r_separates(ball, [], a, b, R=1)


def test_r_separates_dinf_examples(dinf):
    _, _, fg = dinf
    ball = fg.word_metric_ball(8)
    a, b = fg.generating_set().elements
    x0 = fg.evaluate_word(["b", "a", "b"])
    x1 = fg.evaluate_word(["a", "b", "a", "b"])
    I = [fg.identity(), a]
    assert r_separates(ball, I, x0, x1, R=1)
    # with R = 3 the two sides get within jumping range around I
    assert not r_separates(ball, I, x0, x1, R=3)


def test_point_outside_the_ball_is_separated_from_nothing(dinf):
    """A point past the ball lies in no component: r_separates is False and
    the thickening lemma's precondition is unmet, not a lookup error."""
    _, _, fg = dinf
    ball = fg.word_metric_ball(10)
    far = fg.evaluate_word(["b", "a"] * 6)
    near = fg.evaluate_word(["a", "b"] * 3)
    assert far not in ball.index and near in ball.index
    assert r_separates(ball, [fg.identity()], near, fg.evaluate_word(["b", "a"] * 3), R=1)
    assert not r_separates(ball, [fg.identity()], far, near, R=1)
    assert not r_separates(ball, [fg.identity()], near, far, R=1)
    with pytest.raises(PreconditionUnmet):
        verify_thickening_lemma(ball, [fg.identity()], far, near, R=2)


def test_thickening_lemma_dinf(dinf):
    _, _, fg = dinf
    ball = fg.word_metric_ball(10)
    x0 = fg.evaluate_word(["b", "a"] * 3)
    x1 = fg.evaluate_word(["a", "b"] * 3)
    report = verify_thickening_lemma(ball, [fg.identity()], x0, x1, R=2)
    assert report.holds


def test_thickening_lemma_precondition(dinf):
    _, _, fg = dinf
    ball = fg.word_metric_ball(10)
    b = fg.generating_set().elements[1]
    x1 = fg.evaluate_word(["a", "b"] * 3)
    with pytest.raises(PreconditionUnmet):
        verify_thickening_lemma(ball, [fg.identity()], b, x1, R=2)


def test_thickening_lemma_f2(f2):
    _, _, fg = f2
    ball = fg.word_metric_ball(8)
    s1 = fg.generating_set().elements[0]
    # I = the radius-2 sphere restricted to the s1-branch
    I = [x for x in ball.sphere(2) if fg.dist(x, s1) == 1]
    x0 = fg.evaluate_word(["s_a1"] * 6)
    x1 = fg.evaluate_word(["s_a2"] * 4)
    report = verify_thickening_lemma(ball, I, x0, x1, R=2)
    assert report.holds


def test_restriction_lemma_random_subspaces(dinf):
    """K R-separating in X implies K cap X' R-separates in X' (spot check).

    X is the ball and X' the ball minus some dropped points, so an R-path in
    X' minus K is one in the ball minus K and the dropped points."""
    _, _, fg = dinf
    ball = fg.word_metric_ball(9)
    rng = random.Random(23)
    elems = ball.elements
    hits = 0
    for _ in range(200):
        R = rng.choice([1, 2])
        center = elems[rng.randrange(len(elems))]
        K = sorted(thicken(fg, [center], rng.choice([0, 1]), ball=ball),
                   key=lambda n: n.sort_key())
        x0 = elems[rng.randrange(len(elems))]
        x1 = elems[rng.randrange(len(elems))]
        if x0 in K or x1 in K:
            continue
        if not r_separates(ball, K, x0, x1, R):
            continue
        hits += 1
        keep = {x0, x1}
        dropped = {x for x in elems if x not in keep and rng.random() >= 0.7}
        K_sub = [k for k in K if k not in dropped]
        assert set_distance(x0, K_sub, fg.dist) >= R and set_distance(x1, K_sub, fg.dist) >= R
        label = r_components(ball, R, excluded=dropped.union(K_sub))
        assert label[ball.index[x0]] != label[ball.index[x1]]
    assert hits >= 20


def test_enlarging_lemma_random_supersets(dinf):
    _, _, fg = dinf
    ball = fg.word_metric_ball(9)
    rng = random.Random(29)
    elems = ball.elements
    hits = 0
    for _ in range(200):
        R = rng.choice([1, 2])
        center = elems[rng.randrange(len(elems))]
        K = sorted(thicken(fg, [center], 0, ball=ball), key=lambda n: n.sort_key())
        x0 = elems[rng.randrange(len(elems))]
        x1 = elems[rng.randrange(len(elems))]
        if not r_separates(ball, K, x0, x1, R):
            continue
        extra = [x for x in elems
                 if fg.dist(x, x0) >= R and fg.dist(x, x1) >= R and rng.random() < 0.3]
        K2 = sorted(set(K) | set(extra), key=lambda n: n.sort_key())
        if set_distance(x0, K2, fg.dist) < R or set_distance(x1, K2, fg.dist) < R:
            continue
        hits += 1
        assert r_separates(ball, K2, x0, x1, R)
    assert hits >= 20


@pytest.mark.parametrize("name,radius,R", [
    ("dinf", 10, 1), ("dinf", 10, 2), ("z2z3", 8, 1), ("z2z3", 8, 2),
])
def test_cayley_separation_suite(name, radius, R):
    _, _, fg = make_fg(name)
    report = verify_cayley_separation(fg, ball_radius=radius, samples=50,
                                      R=R, seed=7)
    assert report.holds, report.failures[:3]
    assert report.witness_pairs_tested > 0


def test_cayley_separation_reports_not_applicable(dinf):
    _, _, fg = dinf
    report = verify_cayley_separation(fg, ball_radius=6, samples=30, R=1, seed=1)
    assert report.not_applicable > 0   # coincident vertex samples are skipped


def test_cayley_separation_measures_each_point_once(monkeypatch):
    """Per sample, d(x, I) is computed once per eligible point, not per pair."""
    from amalgam_lab import separation

    _, _, fg = make_fg(SL2Z)
    sesq = 2    # ceil(3R/2) for R = 1
    blocks = []     # per sample: [eligible points, set_distance calls against I]
    state = {"after_labels": False}

    def edge_coset(*args, **kwargs):
        # the sampled edge's coset opens every sample with u != w; the vertex
        # cosets are memoised by vid, so they no longer mark the samples
        blocks.append([0, 0])
        state["after_labels"] = False
        return orig_edge_coset(*args, **kwargs)

    def labels(*args, **kwargs):
        state["after_labels"] = True
        return orig_labels(*args, **kwargs)

    def coset_distance(*args, **kwargs):
        # the eligibility filters measure d(x, edge coset) before the labelling
        d = orig_coset_distance(*args, **kwargs)
        if not state["after_labels"] and d >= sesq:
            blocks[-1][0] += 1
        return d

    def distance(*args, **kwargs):
        if state["after_labels"]:
            blocks[-1][1] += 1
        return orig_distance(*args, **kwargs)

    orig_edge_coset = TreeBall.edge_coset_elements
    orig_labels = separation.r_components
    orig_coset_distance = separation.edge_coset_distance
    orig_distance = separation.set_distance
    monkeypatch.setattr(TreeBall, "edge_coset_elements", edge_coset)
    monkeypatch.setattr(separation, "r_components", labels)
    monkeypatch.setattr(separation, "edge_coset_distance", coset_distance)
    monkeypatch.setattr(separation, "set_distance", distance)
    report = verify_cayley_separation(fg, ball_radius=10, samples=30, R=1, seed=7)
    assert all(calls <= eligible for eligible, calls in blocks)
    # per-pair distances would need two calls for each pair tested
    assert sum(calls for _, calls in blocks) < 2 * report.witness_pairs_tested


@pytest.mark.parametrize("name,radius", [("dinf", 12), ("z2z3", 10)])
def test_K_construction_suite(name, radius):
    _, _, fg = make_fg(name)
    report = verify_K_construction(fg, ball_radius=radius,
                                   edges_sampled=20, seed=3)
    assert report.holds, report.failures[:3]
    assert report.details["worst_R0"] <= report.details["diam_I_3/2"]


def test_ends_verdicts():
    for name, radii, margin, expect in [
        ("trivial", [4, 6, 8], 3, "0"),
        ("dinf", [4, 6, 8, 10], 3, "2"),
        ("zz", [4, 6, 8], 3, "1"),
        ("f2", [3, 5, 7], 2, "infinity-growing"),
        ("z2z3", [4, 6, 8], 2, "infinity-growing"),
    ]:
        _, _, fg = make_fg(name)
        report = ends_estimate(fg, radii, margin=margin)
        assert report.verdict == expect, name


def test_ends_inconclusive_without_margin(zz):
    _, _, fg = zz
    with pytest.raises(Inconclusive):
        ends_estimate(fg, [2], margin=0)


def _ends_per_radius(fg, radii, margin):
    """Oracle for ``ends_estimate``: one ``r_components`` labelling of each
    annulus ball(n_max) minus ball(n), kept by the same rule."""
    radii = sorted(radii)
    n_max = radii[-1] + margin
    ball = fg.word_metric_ball(n_max)
    outer = len(ball) - ball.layer_sizes[-1]
    counts, sizes = [], {}
    for n in radii:
        label = r_components(ball, 1, excluded=ball.elements[:sum(ball.layer_sizes[:n + 1])])
        comps = components(ball, label)
        floor = max(1, n_max - n)
        kept = [c for c in comps if ball.index[c[-1]] >= outer and len(c) >= floor]
        counts.append(len(kept))
        sizes[n] = sorted((len(c) for c in kept), reverse=True)
    return tuple(counts), sizes


# duplicate radii, a radius of 0, margin 0; n_max <= 5 keeps z2z2's ball at 11,481
ENDS_CASES = [((3, 3, 5), 0), ((0, 2, 4), 1), ((1, 2, 3), 0), ((2, 4), 1), ((0,), 0),
              ((3, 3), 2)]


@pytest.mark.parametrize("name", ["trivial", "dinf", "zz", "f2", "z2z3", "z2z2", "sl2z",
                                  "segment"])
def test_ends_inward_merge_matches_per_radius_labelling(name, monkeypatch):
    """Counts and component sizes of the one-labelling inward merge equal a
    fresh labelling per radius, from one ``r_components`` call.  trivial and
    segment (Z/2 over an isomorphism) exhaust their balls."""
    from amalgam_lab import separation

    _, _, fg = make_fg({"sl2z": SL2Z, "segment": SEGMENT}.get(name, name))
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return r_components(*args, **kwargs)
    monkeypatch.setattr(separation, "r_components", counted)
    for radii, margin in ENDS_CASES:
        counts, sizes = _ends_per_radius(fg, radii, margin)
        calls = 0
        try:
            report = ends_estimate(fg, radii, margin=margin)
        except Inconclusive as exc:
            assert f"counts {counts} did" in str(exc), (radii, margin)
        else:
            assert report.counts == counts, (radii, margin)
            assert list(report.component_sizes.items()) == list(sizes.items()), (radii, margin)
        assert calls == 1, (radii, margin)


def test_coset_elements_in_ball_backend(z2z2):
    _, _, fg = z2z2
    ball = fg.word_metric_ball(4)
    elems = coset_elements_in_ball(fg, ball, fg.identity(), 0, 4)
    assert fg.identity() in elems
    assert all(fg.in_vertex_subgroup(x, 0) for x in elems)
    assert len(elems) == 41   # |Z^2 ball of radius 4| = 1+2*4*(4+1)


def _coset_elements_by_wordlen(fg, rep, vtype, maxlen):
    """Oracle: the coset enumeration filtered by ``fg.wordlen``, not by a ball."""
    backend = fg.gog.vertex_groups[vtype]
    if backend.is_finite:
        members = sorted(fg.vertex_subgroup_elements(vtype), key=lambda n: n.sort_key())
    else:
        reach = maxlen + fg.wordlen(rep)
        members = [fg.vertex_element(vtype, g) for g in backend.ball(reach, fg.ball_budget)]
    coset = (fg.multiply(rep, h) for h in members)
    return [x for x in coset if fg.wordlen(x) <= maxlen]


@pytest.mark.parametrize("name", [*NAMES, SL2Z], ids=[*NAMES, "sl2z"])
def test_coset_elements_in_ball_matches_wordlen_filter(name):
    _, _, fg = make_fg(name)
    ball = fg.word_metric_ball(5)
    for v in TreeBall(fg, 3).vertices:
        for maxlen in range(-3, 6):
            assert (coset_elements_in_ball(fg, ball, v.rep, v.vtype, maxlen)
                    == _coset_elements_by_wordlen(fg, v.rep, v.vtype, maxlen)), (v.vid, maxlen)
    with pytest.raises(ValueError, match="exceeds the ball radius"):
        coset_elements_in_ball(fg, ball, fg.identity(), fg.root, 6)


def test_ball_metric_axioms_spot_check(z2z3):
    _, _, fg = z2z3
    ball = fg.word_metric_ball(5)
    rng = random.Random(41)
    elems = ball.elements
    for _ in range(1000):
        x, y, z = (elems[rng.randrange(len(elems))] for _ in range(3))
        assert fg.dist(x, y) == fg.dist(y, x)
        assert fg.dist(x, z) <= fg.dist(x, y) + fg.dist(y, z)
        assert (fg.dist(x, y) == 0) == (x == y)


AMALGAM_Z4_Z6 = """
group A cyclic 4
group B table [[0,1,2,3,4,5],[1,2,3,4,5,0],[2,3,4,5,0,1],[3,4,5,0,1,2],[4,5,0,1,2,3],[5,0,1,2,3,4]] labels [e,b,b2,b3,b4,b5]
group E cyclic 2
vertex v1 A gens [a]
vertex v2 B gens [b]
edge e1 v1 -- v2 group E embed_fwd {a:b3} embed_bwd {a:a2}
"""


def test_verifiers_on_nontrivial_edge_group():
    _, _, fg = make_fg(AMALGAM_Z4_Z6)
    rep = verify_cayley_separation(fg, ball_radius=8, samples=25, R=1, seed=2)
    assert rep.holds and rep.witness_pairs_tested > 0
    rep = verify_K_construction(fg, ball_radius=9, edges_sampled=10, seed=2)
    assert rep.holds
    assert rep.details["worst_R0"] <= rep.details["diam_I_3/2"]
    assert ends_estimate(fg, [4, 6, 8], margin=3).verdict == "infinity-growing"


@pytest.mark.parametrize("name", ["sl2z", *FINITE_EDGED])
def test_edge_coset_distance_equals_set_distance(name):
    """d(x, gamma·H) from one product per member of H equals the minimum of
    d(x, c) over the enumerated edge coset, for every tree edge and every
    in-ball coset point."""
    _, _, fg = make_fg(SL2Z if name == "sl2z" else FINITE_EDGED[name])
    ball = fg.word_metric_ball(5)
    tb = TreeBall(fg, 2)
    points = {x for v in tb.vertices
              for x in coset_elements_in_ball(fg, ball, v.rep, v.vtype, 3)}
    assert points
    for e in tb.edges:
        gamma_inv = fg.invert(e.rep)
        subgroup = fg.edge_subgroup_elements(e.pair)
        coset = tb.edge_coset_elements(e.eid)
        for x in points:
            assert (edge_coset_distance(fg, x, gamma_inv, subgroup)
                    == set_distance(x, coset, fg.dist)), (e.eid, x.display())


@pytest.mark.parametrize("name", ["sl2z", "dinf", "z2z3"])
def test_diameter_equals_ordered_pairs_max(name):
    """The unordered-pairs diameter equals the max over ordered pairs on the
    sets P and I_{3/2} of the K-construction."""
    _, _, fg = make_fg(SL2Z if name == "sl2z" else name)
    L = [fg.identity(), *fg.generating_set().steps]
    P = {fg.multiply(a, fg.invert(b)) for a in L for b in L}
    diam_P = max(fg.dist(a, b) for a in P for b in P)
    assert diameter(fg, P) == diam_P
    base = {h for k in range(fg.gog.graph.n_edges) for h in fg.edge_subgroup_elements(k)}
    I_sesq = thicken(fg, base, (3 * diam_P + 1) // 2)
    assert diameter(fg, I_sesq) == max(fg.dist(a, b) for a in I_sesq for b in I_sesq)
    assert diameter(fg, [fg.identity()]) == 0


def test_cayley_separation_enumerates_each_vertex_coset_once(monkeypatch):
    from amalgam_lab import separation

    _, _, fg = make_fg(SL2Z)
    cosets = []
    orig = separation.coset_elements_in_ball

    def counted(fg, ball, rep, vtype, maxlen):
        cosets.append((rep, vtype))
        return orig(fg, ball, rep, vtype, maxlen)
    monkeypatch.setattr(separation, "coset_elements_in_ball", counted)
    verify_cayley_separation(fg, ball_radius=10, samples=30, R=1, seed=7)
    assert cosets and len(cosets) == len(set(cosets))
