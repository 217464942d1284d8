from __future__ import annotations

import math
import random
from pathlib import Path

import pytest

from amalgam_lab.bass_serre import TreeBall, tiling_tree
from amalgam_lab.corpus import NAMES
from amalgam_lab.dsl import parse_gog
from amalgam_lab.errors import Inconclusive, PreconditionUnmet
from amalgam_lab.fundgroup import FundamentalGroup
from amalgam_lab.separation import (
    coset_elements_in_ball,
    diameter,
    ends_estimate,
    r_components,
    r_separates,
    set_distance,
    thicken,
    verify_K_construction,
    verify_cayley_separation,
    verify_thickening_lemma,
)

from conftest import (ALL_TEXTS, DEAD_ENDS, FINITE_EDGED, GOG_TEXTS, S3_Z4, SEGMENT, SL2Z, Z2_PATH,
                      components, make_fg)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the inputs with an edge, so with an identity edge to test
EDGED = [name for name, text in ALL_TEXTS.items() if parse_gog(text).graph.n_edges]


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
    report = verify_cayley_separation(fg, ball_radius=radius, R=R)
    assert report.holds, report.failures[:3]
    assert report.witness_pairs_tested > 0


def test_cayley_separation_reports_not_applicable():
    """DEAD_ENDS's e2 has a dead end: the v3 vertex below its identity edge
    holds only the edge coset, so that side has no eligible point.  Its
    orbit is not applicable, and e1's orbit is still tested."""
    _, _, fg = make_fg(DEAD_ENDS)
    report = verify_cayley_separation(fg, ball_radius=6, R=1)
    assert report.not_applicable == 1
    assert report.holds and report.witness_pairs_tested > 0


def test_cayley_separation_measures_each_point_once(monkeypatch):
    """Per edge pair, one labelling and one d(x, G_y) map, read once per
    coset point of either side; no point is measured against I, and the
    pairs across the edge are tested by component, not one by one."""
    from amalgam_lab import separation

    _, _, fg = make_fg("f2")
    labels, reads, measured = [0], [], [0]

    def counted_labels(*args, **kwargs):
        labels[0] += 1
        return orig_labels(*args, **kwargs)

    def coset_distances(*args, **kwargs):
        distance = orig_coset_distances(*args, **kwargs)
        read = []
        reads.append(read)

        def counted(x):
            read.append(x)
            return distance(x)
        return counted

    def distance(*args, **kwargs):
        measured[0] += 1
        return orig_distance(*args, **kwargs)

    orig_labels = separation.r_components
    orig_coset_distances = FundamentalGroup.coset_distances
    orig_distance = separation.set_distance
    monkeypatch.setattr(separation, "r_components", counted_labels)
    monkeypatch.setattr(FundamentalGroup, "coset_distances", coset_distances)
    monkeypatch.setattr(separation, "set_distance", distance)
    report = verify_cayley_separation(fg, ball_radius=6, R=1)
    assert labels[0] == len(reads) == fg.gog.graph.n_edges == 2
    assert measured[0] == 0
    assert all(0 < len(read) == len(set(read)) for read in reads)
    assert sum(len(read) for read in reads) < report.witness_pairs_tested


@pytest.mark.parametrize("name", EDGED)
def test_eligible_points_lie_R_from_the_thickened_coset(name):
    """The oracle for the d(x, I) >= R check that ``verify_cayley_separation``
    leaves to the triangle inequality: at radius 6 and R = 1, 2, every
    eligible point of an edge with eligible points on both sides lies at
    least R from I = N_{ceil(R/2)}(G_y), by ``set_distance``.  The points
    are enumerated once, at R = 1's margin; R = 2's margin keeps those of
    word length <= 3.  An R at which no edge applies, so that the verifier
    raises PreconditionUnmet, is named in a skip."""
    from amalgam_lab.separation import _identity_edges

    _, _, fg = make_fg(ALL_TEXTS[name])
    radius, unmet = 6, []
    _, ball, _, edges = _identity_edges(fg, radius, radius - 2)
    for R in (1, 2):
        inside = ball.layer_starts[radius - R]   # word length <= radius - (R + 1)
        applies = False
        for _, H, _, _, measured in edges:
            eligible = [[x for x, d in side if d >= math.ceil(3 * R / 2) and ball.index[x] < inside]
                        for side in measured]
            if not all(eligible):
                continue
            applies = True
            I = thicken(fg, H, math.ceil(R / 2), ball=ball)
            for x in eligible[0] + eligible[1]:
                assert set_distance(x, I, fg.dist) >= R, (R, x.display())
        if not applies:
            with pytest.raises(PreconditionUnmet):
                verify_cayley_separation(fg, radius, R)
            unmet.append(R)
    if unmet:
        pytest.skip(f"{name}: separate raises PreconditionUnmet at radius {radius}, R in {unmet}")


def test_joined_pairs_match_the_pairwise_check():
    """The linear witness search against the pair-by-pair check: it finds a
    witness exactly when some cross pair is not apart, each witness is such
    a pair, and there is one per shared component and one for the excluded
    points (label -1)."""
    from amalgam_lab.separation import _joined_pairs

    rng = random.Random(5)
    for _ in range(500):
        n = rng.randrange(1, 12)
        label = [rng.randrange(-1, 4) for _ in range(n)]
        index = {i: i for i in range(n)}
        sides = [rng.sample(range(n), rng.randrange(n + 1)) for _ in range(2)]
        bad = {(x, x2) for x in sides[0] for x2 in sides[1]
               if min(label[x], label[x2]) < 0 or label[x] == label[x2]}
        pairs = _joined_pairs(label, index, sides)
        assert bool(pairs) == bool(bad) and set(pairs) <= bad
        shared = {label[x] for x in sides[0]} & {label[x] for x in sides[1]} - {-1}
        excluded = any(label[x] < 0 for side in sides for x in side)
        assert len(pairs) == (len(shared) + excluded if all(sides) else 0)


@pytest.mark.parametrize("name,radius", [("dinf", 12), ("z2z3", 10)])
def test_K_construction_suite(name, radius):
    _, _, fg = make_fg(name)
    report = verify_K_construction(fg, ball_radius=radius)
    assert report.holds, report.failures[:3]
    assert report.details["worst_R0"] <= report.details["diam_I_3/2"]


@pytest.mark.parametrize("name", ["dinf", "z2z3", "zxz2", "sl2z"])
def test_K_construction_reads_R0_3_at_radius_6(name):
    """Every identity edge gives R0 = 3 at radius 6.  A sampled run read
    3, 2, 1 and 2 on these inputs at seed 3, because the edges it drew
    lay nearer the sphere."""
    _, _, fg = make_fg(SL2Z if name == "sl2z" else name)
    report = verify_K_construction(fg, ball_radius=6)
    assert report.details["R0"] == {"e1": 3} and report.details["worst_R0"] == 3


def test_K_construction_analyses_each_distinct_edge_once(monkeypatch):
    """verify-k labels the ball minus K once in all, since every identity
    edge's coset holds 1, and reads R0 by edge name; with R-probe 0 the
    probe reuses that labelling and adds none."""
    from amalgam_lab import separation

    labelled = [0]
    orig_labels = separation.r_components

    def labels(*args, **kwargs):
        labelled[0] += 1
        return orig_labels(*args, **kwargs)
    monkeypatch.setattr(separation, "r_components", labels)
    _, _, fg = make_fg(Z2_PATH)
    report = verify_K_construction(fg, ball_radius=7, R_probe=0)
    assert labelled[0] == 1
    assert sorted(report.details["R0"]) == ["e1", "e2"]
    assert report.details["worst_R0"] == max(report.details["R0"].values())
    assert report.details["probe_edges"] == 2 and report.details["probe_pairs"] > 0
    assert report.witness_pairs_tested > 0 and report.not_applicable == 0


def _K(fg):
    """K = I_{diam(P)/2}·L, built as ``verify_K_construction`` builds it."""
    L = [fg.identity(), *fg.generating_set().steps]
    P = {fg.multiply(a, fg.invert(b)) for a in L for b in L}
    base = {h for k in range(fg.gog.graph.n_edges) for h in fg.edge_subgroup_elements(k)}
    I_half = thicken(fg, base, math.ceil(diameter(fg, P) / 2))
    return {fg.multiply(i, l) for i in I_half for l in L}


@pytest.mark.parametrize("name", EDGED)
def test_K_and_P_are_read_off_balls(name):
    """With L = B(1), L·L^-1 = B(2), since S is closed under inversion, and
    the old K = I_{diam(P)/2}·L equals N_{ceil(diam(P)/2)+1}(edge groups),
    the one ``thicken`` that verify-k forms."""
    _, _, fg = make_fg(ALL_TEXTS[name])
    ball = fg.word_metric_ball(2)
    L, P = ball.elements[:ball.layer_starts[2]], set(ball.elements)
    assert {fg.multiply(a, fg.invert(b)) for a in L for b in L} == P
    base = {h for k in range(fg.gog.graph.n_edges) for h in fg.edge_subgroup_elements(k)}
    assert _K(fg) == thicken(fg, base, math.ceil(diameter(fg, P) / 2) + 1)


# f2's diam(I_3/2) takes about 10 s, and z2z2, free_one, hnn6 and chain
# exceed a budget before the labelling
@pytest.mark.parametrize("name", ["dinf", "z2z3", "zxz2", "sl2z", "z6z9", "s3z4", "dead_ends",
                                  "stable_clash", "segment", "rev"])
def test_K_construction_excludes_the_old_K(name, monkeypatch):
    """The one labelling of verify-k excludes exactly the old K.  segment
    and rev have no coset point off an edge coset at radius 4, so there the
    verifier raises PreconditionUnmet after the labelling."""
    from amalgam_lab import separation

    excluded_sets = []
    orig_labels = separation.r_components

    def labels(ball, R, excluded=()):
        excluded_sets.append(set(excluded))
        return orig_labels(ball, R, excluded=excluded)
    monkeypatch.setattr(separation, "r_components", labels)
    _, _, fg = make_fg(ALL_TEXTS[name])
    try:
        verify_K_construction(fg, 4)
    except PreconditionUnmet:
        assert name in ("segment", "rev")
    assert excluded_sets == [_K(fg)]


def _split_R0(fg, ball, tb, points, K, child):
    """Oracle: the per-edge analysis the sampled verifier ran on any tree
    edge.  R0 of the split at the edge into vertex child, or None when a
    side has no coset point."""
    gammaK = {fg.multiply(tb.edge_rep(child), k) for k in K}
    M, M2 = ({x for vid in side for x in points[vid]} for side in tb.split_by_edge(child))
    if not M or not M2:
        return None
    label = r_components(ball, 1, excluded=gammaK)
    H = fg.edge_subgroup_elements(tb.edge_pair(child))
    distance = fg.coset_distances(fg.invert(tb.edge_rep(child)), H)
    AM, AM2 = ([(x, distance(x), label[ball.index[x]]) for x in side] for side in (M, M2))
    max_d_M = max(d for _, d, _ in AM)
    max_d_M2 = max(d for _, d, _ in AM2)
    best_per_comp: dict[int, list[float]] = {}
    R0 = 0
    for side, (A, other_max) in enumerate(((AM, max_d_M2), (AM2, max_d_M))):
        for x, d, c in A:
            if c < 0:
                R0 = max(R0, min(d, other_max))
            else:
                best = best_per_comp.setdefault(c, [0, 0])
                best[side] = max(best[side], d)
    for dm, dm2 in best_per_comp.values():
        if dm > 0 and dm2 > 0:
            R0 = max(R0, min(dm, dm2))
    return R0


# f2's diam(I_3/2) takes about 10 s, and hnn6's and chain's exceed the
# element budget, so their per-orbit R0 is the oracle's at the identity edge
ORBIT_INPUTS = {"sl2z": SL2Z, "z6z9": FINITE_EDGED["z6z9"], "z2z3": "z2z3", "dinf": "dinf",
                "zxz2": "zxz2", "f2": "f2", "chain": FINITE_EDGED["chain"],
                "hnn6": FINITE_EDGED["hnn6"]}


@pytest.mark.parametrize("name", ORBIT_INPUTS)
def test_identity_edge_R0_bounds_its_orbit(name):
    """Every edge of the depth-3 tree ball (ball radius 5) has an R0, by the
    sampled verifier's analysis, at most the per-orbit R0 of its edge pair:
    the identity edge is the least truncated view of its orbit."""
    _, _, fg = make_fg(ORBIT_INPUTS[name])
    radius = 5
    ball = fg.word_metric_ball(radius)
    tb = TreeBall(fg, radius - 2)
    points = [coset_elements_in_ball(fg, ball, tb.rep(v), tb.vtype[v], radius - 2)
              for v in tb.vertices]
    K = _K(fg)
    names = fg.gog.graph.edge_names
    per_orbit = {names[tb.edge_pair(c)]: _split_R0(fg, ball, tb, points, K, c)
                 for c in tiling_tree(tb).edge_ids}
    if name in ("sl2z", "z6z9", "z2z3", "dinf", "zxz2"):
        assert verify_K_construction(fg, radius).details["R0"] == per_orbit
    for child in range(1, len(tb.vertices)):
        R0 = _split_R0(fg, ball, tb, points, K, child)
        if R0 is not None:
            assert R0 <= per_orbit[names[tb.edge_pair(child)]], child


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
    annulus ball(n_max) minus ball(n), kept by the same rule; a repeated
    radius counts once."""
    radii = sorted(set(radii))
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
    tb = TreeBall(fg, 3)
    for v in tb.vertices:
        rep, vtype = tb.rep(v), tb.vtype[v]
        for maxlen in range(-3, 6):
            assert (coset_elements_in_ball(fg, ball, rep, vtype, maxlen)
                    == _coset_elements_by_wordlen(fg, rep, vtype, maxlen)), (v, maxlen)
    with pytest.raises(ValueError, match="exceeds the ball radius"):
        coset_elements_in_ball(fg, ball, fg.identity(), fg.root, 6)


@pytest.mark.parametrize("name", [*NAMES, SL2Z], ids=[*NAMES, "sl2z"])
def test_coset_points_are_the_ball_own_objects(name):
    """Each coset point is the ball's own element, not an equal copy, so
    later ``ball.index`` lookups and set unions match it by identity."""
    _, _, fg = make_fg(name)
    ball = fg.word_metric_ball(5)
    tb = TreeBall(fg, 3)
    for v in tb.vertices:
        for x in coset_elements_in_ball(fg, ball, tb.rep(v), tb.vtype[v], 5):
            assert x is ball.elements[ball.index[x]], (v, x.display())


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
    rep = verify_cayley_separation(fg, ball_radius=8, R=1)
    assert rep.holds and rep.witness_pairs_tested > 0
    rep = verify_K_construction(fg, ball_radius=9)
    assert rep.holds
    assert rep.details["worst_R0"] <= rep.details["diam_I_3/2"]
    assert ends_estimate(fg, [4, 6, 8], margin=3).verdict == "infinity-growing"


# name -> (input, ball radius, tree-ball depth); s3z4's vertex group is
# non-abelian and its edge image is not normal, so the order of the factors
# of a piece matters there
COSET_DISTANCE_CASES = {"sl2z": (SL2Z, 5, 2), **{n: (t, 5, 2) for n, t in FINITE_EDGED.items()},
                        "s3z4": (S3_Z4, 5, 2), "sl2z-deep": (SL2Z, 12, 5)}


@pytest.mark.parametrize("name", COSET_DISTANCE_CASES)
def test_edge_coset_distance_equals_set_distance(name):
    """d(x, gamma·H) from the coset-length automaton equals the minimum of
    d(x, c) over the enumerated edge coset, for every tree edge and every
    in-ball coset point."""
    text, radius, depth = COSET_DISTANCE_CASES[name]
    _, _, fg = make_fg(text)
    ball = fg.word_metric_ball(radius)
    tb = TreeBall(fg, depth)
    points = {x for v in tb.vertices
              for x in coset_elements_in_ball(fg, ball, tb.rep(v), tb.vtype[v], radius - 2)}
    assert points
    for e in tb.vertices[1:]:
        distance = fg.coset_distances(fg.invert(tb.edge_rep(e)),
                                      fg.edge_subgroup_elements(tb.edge_pair(e)))
        coset = tb.edge_coset_elements(e)
        for x in points:
            assert distance(x) == set_distance(x, coset, fg.dist), (e, x.display())


def test_K_construction_coset_distances_need_no_walk(monkeypatch):
    """On the benchmark's verify-k run, the wordlen walk grows whole layers
    and stops once it holds B(12), all 884 elements: the pruned diameters
    measure 24 pairs, and the lengths of the points they read lie in it.  No
    coset distance forms a product: the identity edge's map d(x, G_y) reads
    x itself.  L and P are read off the ball and K is one thicken, so 4,812
    products in all: ``thicken``'s B(3) and B(6) are prefixes of the cached
    B(12), and their 300 products are not formed again.
    The automaton stays small because its states are normalised."""
    _, _, fg = make_fg((PERFBENCH / "sl2z.gog").read_text())
    products, per_call = [0], []
    multiply, coset_distances = FundamentalGroup.multiply, FundamentalGroup.coset_distances

    def counted_multiply(self, x, y):
        products[0] += 1
        return multiply(self, x, y)

    def counted_distances(*args):
        distance = coset_distances(*args)

        def counted(x):
            before = products[0]
            d = distance(x)
            per_call.append(products[0] - before)
            return d
        return counted
    monkeypatch.setattr(FundamentalGroup, "multiply", counted_multiply)
    monkeypatch.setattr(FundamentalGroup, "coset_distances", counted_distances)
    assert verify_K_construction(fg, 12).holds
    assert len(per_call) == 438 and set(per_call) == {0}
    assert products[0] == 4_812
    assert len(fg._len_walk.elements) == len(fg.word_metric_ball(12)) == 884
    assert len(fg._cosets.table) < 20


DIAMETER_INPUTS = {**GOG_TEXTS, "z2_path": Z2_PATH}
# the inputs whose I_{3/2} has at most about 20,000 pairs; f2, z2z2, hnn6,
# chain and free_one have 10^6 or more
SMALL_I_SESQ = [name for name in DIAMETER_INPUTS
                if name not in ("f2", "z2z2", "hnn6", "chain", "free_one")]


def _ordered_pairs_max(fg, points) -> int:
    """The brute-force diameter: every ordered pair, no bound."""
    return max((fg.dist(a, b) for a in points for b in points), default=0)


@pytest.mark.parametrize("name", SMALL_I_SESQ)
def test_diameter_equals_ordered_pairs_max(name):
    """The pruned diameter equals the max over ordered pairs on the sets P
    and I_{3/2} of the K-construction."""
    _, _, fg = make_fg(DIAMETER_INPUTS[name])
    L = [fg.identity(), *fg.generating_set().steps]
    P = {fg.multiply(a, fg.invert(b)) for a in L for b in L}
    diam_P = _ordered_pairs_max(fg, P)
    assert diameter(fg, P) == diam_P
    base = {h for k in range(fg.gog.graph.n_edges) for h in fg.edge_subgroup_elements(k)}
    I_sesq = thicken(fg, base, (3 * diam_P + 1) // 2)
    assert diameter(fg, I_sesq) == _ordered_pairs_max(fg, I_sesq)
    assert diameter(fg, [fg.identity()]) == 0


@pytest.mark.parametrize("name", DIAMETER_INPUTS)
def test_diameter_of_ball_subsets_equals_ordered_pairs_max(name):
    """On seeded subsets of B(4), where the bound |a| + |b| is loose: sets
    with and without 1, single layers (every bound alike), and left
    translates g·X, which keep the diameter but not the lengths."""
    _, _, fg = make_fg(DIAMETER_INPUTS[name])
    ball = fg.word_metric_ball(4)
    rng = random.Random(f"diameter-{name}")
    others = ball.elements[1:]
    subsets = [rng.sample(ball.elements, min(len(ball), rng.randint(2, 24))) for _ in range(4)]
    subsets += [rng.sample(others, min(len(others), rng.randint(2, 24))) for _ in range(4)]
    starts = ball.layer_starts
    for k in range(1, len(starts) - 1):
        layer = ball.elements[starts[k]:starts[k + 1]]
        subsets.append(rng.sample(layer, min(len(layer), 32)))
    for X in subsets:
        d = diameter(fg, X)
        assert d == _ordered_pairs_max(fg, X), [x.display() for x in X]
        g = rng.choice(ball.elements)
        gX = [fg.multiply(g, x) for x in X]
        assert diameter(fg, gX) == d == _ordered_pairs_max(fg, gX), g.display()


def test_K_construction_measures_24_diameter_pairs(dist_calls):
    """On the benchmark's verify-k run the two diameters measure 24 pairs
    through ``dist``, where the all-pairs search measured 5,070 (120 of P,
    4,950 of I_{3/2})."""
    _, _, fg = make_fg((PERFBENCH / "sl2z.gog").read_text())
    rep = verify_K_construction(fg, 12)
    assert rep.holds and (rep.details["diam_P"], rep.details["diam_I_3/2"]) == (4, 12)
    assert dist_calls[0] == 24


def test_cayley_separation_enumerates_each_vertex_coset_once(monkeypatch):
    from amalgam_lab import separation

    _, _, fg = make_fg(SL2Z)
    cosets = []
    orig = separation.coset_elements_in_ball

    def counted(fg, ball, rep, vtype, maxlen):
        cosets.append((rep, vtype))
        return orig(fg, ball, rep, vtype, maxlen)
    monkeypatch.setattr(separation, "coset_elements_in_ball", counted)
    verify_cayley_separation(fg, ball_radius=10, R=1)
    # one enumeration per vertex of the verifier's depth-8 tree ball
    assert len(cosets) == len(set(cosets)) == len(TreeBall(fg, 8).vertices)
