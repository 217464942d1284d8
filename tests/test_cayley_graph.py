"""The Cayley ball as an indexed graph: neighbour tables against exact
products, R-component labellings against an all-pairs union-find oracle, and
the tables being built once per ball and R.

The oracle of the tables is the per-entry line
``ball.index.get(fg.multiply(x, s), -1)`` in
``test_neighbour_table_entries_are_exact_products``."""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgam_lab.corpus import NAMES
from amalgam_lab.fundgroup import FundamentalGroup
from amalgam_lab.separation import r_components

from conftest import ALL_TEXTS, FINITE_EDGED, SL2Z, components, make_fg, swept_product

INPUTS = [*NAMES, "sl2z"]
SOURCES = {"sl2z": SL2Z, **FINITE_EDGED}
# the all-pairs oracle is quadratic: z2z2's radius-3 ball has 337 elements
RADIUS = {"z2z2": 2}


@functools.cache
def _ball(name: str):
    """(group, ball, memoised fg.dist, elements just outside the ball)."""
    _, _, fg = make_fg(SOURCES.get(name, name))
    radius = RADIUS.get(name, 3)
    ball = fg.word_metric_ball(radius)
    outside = fg.word_metric_ball(radius + 1).sphere(radius + 1)
    return fg, ball, functools.cache(fg.dist), outside


@pytest.mark.parametrize("R", [1, 2, 3])
@pytest.mark.parametrize("name", [*INPUTS, *FINITE_EDGED])
def test_neighbour_table_entries_are_exact_products(name, R):
    """The walk's R = 1 table and the R > 1 tables composed from it, on the
    cached ball and on one built by a second group on the same input, against
    one product per entry.  z2z3 has steps along a sphere (the odd cycles of
    b^3); sl2z and the finite-edged inputs form every outer-sphere product."""
    fg, cached, _, _ = _ball(name)
    uncached = FundamentalGroup(fg.gog, fg.sd).word_metric_ball(cached.radius)
    for ball in (cached, uncached):
        group = ball.group
        shifts = group.word_metric_ball(R).elements[1:]
        table = ball.neighbours(R)
        assert len(table) == len(ball) * len(shifts)
        for i, x in enumerate(ball.elements):
            for j, s in enumerate(shifts):
                assert table[i * len(shifts) + j] == ball.index.get(group.multiply(x, s), -1)


@pytest.mark.parametrize("name", [*INPUTS, *FINITE_EDGED])
def test_steps_join_one_sphere_exactly_when_a_relator_is_odd(name):
    """With every relator even, no step joins two elements of one sphere, so
    the walk marks the outer sphere's unset entries -1 without a product.
    Each odd input here closes an odd cycle inside its ball, and z2z3 also
    joins elements of the outer sphere, which are formed and looked up."""
    fg, ball, _, _ = _ball(name)
    table, m = ball.neighbours(1), len(fg.generating_set().steps)
    layer = [k for k in range(ball.radius + 1) for _ in ball.sphere(k)]  # by position
    along = [i for i, k in enumerate(table) if k >= 0 and layer[k] == layer[i // m]]
    assert (not along) == fg._bipartite_cayley_graph()
    if name == "z2z3":
        assert any(i // m >= len(ball) - ball.layer_sizes[-1] for i in along)


@pytest.mark.parametrize("name", [*INPUTS, *FINITE_EDGED])
def test_ball_forms_each_step_product_once(name, monkeypatch):
    """A product x·s = y fills two entries of the R = 1 table, x's for s and
    y's for s^-1, and a product that leaves the ball fills one -1.  In a
    bipartite Cayley graph the -1 entries take no product at all."""
    _, _, fg = make_fg(SOURCES.get(name, name))
    fg.generating_set()
    bipartite = fg._bipartite_cayley_graph()
    calls = 0
    multiply = FundamentalGroup.multiply

    def counted(self, x, y):
        nonlocal calls
        calls += 1
        return multiply(self, x, y)

    monkeypatch.setattr(FundamentalGroup, "multiply", counted)
    table = fg.word_metric_ball(RADIUS.get(name, 3)).step_table
    inside = sum(1 for k in table if k >= 0)
    assert inside % 2 == 0
    assert calls == inside // 2 + (0 if bipartite else table.count(-1))


# the inputs whose relators all have even length, so that the walk's table
# needs no closing pass
BIPARTITE = {"trivial", "dinf", "f2", "zxz2", "z2z2", "zz", "segment", "free_one",
             "dead_ends", "stable_clash"}


@pytest.mark.parametrize("name", ALL_TEXTS)
def test_finished_step_table_reads_minus_one_exactly_outside(name):
    """At radius 4, on bipartite Cayley graphs (f2, z2z2, ...) and others
    (z2z3, sl2z, ...): every entry of the R = 1 table is a position or -1,
    and it is -1 exactly when the product, formed by the full normalize,
    lies outside the ball.  So an entry the walk left unfilled and one that
    leaves the ball are the same -1."""
    _, _, fg = make_fg(ALL_TEXTS[name])
    assert fg._bipartite_cayley_graph() == (name in BIPARTITE)
    ball = fg.word_metric_ball(4)
    gs = fg.generating_set()
    steps = [s for _, s in sorted(zip(gs.step_labels, gs.steps), key=lambda ls: ls[0])]
    table, m = ball.step_table, len(steps)
    assert len(table) == len(ball) * m and min(table, default=-1) >= -1
    for p, x in enumerate(ball.elements):
        for i, s in enumerate(steps):
            assert table[p * m + i] == ball.index.get(swept_product(fg, x, s), -1)


@pytest.mark.parametrize("name", ALL_TEXTS)
def test_smaller_ball_is_a_prefix_of_a_cached_larger_one(name, monkeypatch):
    """With B(4) cached, B(r) for r < 4 forms no product and equals a fresh
    walk of radius r field by field: elements, index in order, radius,
    layers and the R = 1 table."""
    _, _, fg = make_fg(ALL_TEXTS[name])
    fg.word_metric_ball(4)
    multiply = FundamentalGroup.multiply
    calls = 0

    def counted(self, x, y):
        nonlocal calls
        calls += 1
        return multiply(self, x, y)

    monkeypatch.setattr(FundamentalGroup, "multiply", counted)
    sliced = [fg.word_metric_ball(r) for r in range(4)]
    assert calls == 0
    monkeypatch.undo()
    for r, ball in enumerate(sliced):
        fresh = FundamentalGroup(fg.gog, fg.sd).word_metric_ball(r)
        assert ball.radius == fresh.radius == r
        assert ball.elements == fresh.elements
        assert list(ball.index.items()) == list(fresh.index.items())
        assert ball.layer_sizes == fresh.layer_sizes
        assert ball.layer_starts == fresh.layer_starts
        assert ball.step_table == fresh.step_table


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def _all_pairs_components(points, R, excluded, dist):
    """Oracle for ``r_components``: a union-find over every pair of live
    points at distance <= R, which shares no loop with the flood fill."""
    elements = list(points)
    excluded = set(excluded)
    live = [i for i, p in enumerate(elements) if p not in excluded]
    uf = _UnionFind(len(elements))
    for a, i in enumerate(live):
        for j in live[a + 1:]:
            if dist(elements[i], elements[j]) <= R:
                uf.union(i, j)
    # union keeps the smaller root, so roots appear in order of first member
    comps: dict[int, list] = {}
    for i in live:
        comps.setdefault(uf.find(i), []).append(elements[i])
    return list(comps.values())


@pytest.mark.parametrize("R", [1, 2])
@pytest.mark.parametrize("name", INPUTS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_r_components_match_all_pairs_oracle(name, R, data):
    fg, ball, dist, outside = _ball(name)
    excluded = data.draw(st.sets(st.sampled_from(ball.elements)), label="excluded")
    if outside:
        # excluded elements outside the ball are ignored
        excluded |= data.draw(st.sets(st.sampled_from(outside), max_size=3), label="outside")
    oracle = _all_pairs_components(ball.elements, R, excluded, dist)
    label = r_components(ball, R, excluded)
    assert len(label) == len(ball)
    assert [x for x, c in zip(ball.elements, label) if c < 0] == \
        [x for x in ball.elements if x in excluded]
    assert components(ball, label) == oracle


def test_tables_are_built_once_and_leave_the_ball_unchanged(monkeypatch):
    _, _, fg = make_fg("z2z3")
    ball = fg.word_metric_ball(6)
    elements, layer_sizes, size = ball.elements, ball.layer_sizes, len(ball)
    calls = 0
    multiply = FundamentalGroup.multiply

    def counted(self, x, y):
        nonlocal calls
        calls += 1
        return multiply(self, x, y)

    monkeypatch.setattr(FundamentalGroup, "multiply", counted)
    excluded = {fg.identity()}
    # the walk that built the ball also built its R = 1 table
    first = r_components(ball, 1, excluded)
    assert calls == 0
    assert r_components(ball, 1, excluded) == first
    for i in range(len(ball)):
        ball.adjacency(i)
    spheres = [ball.sphere(k) for k in range(ball.radius + 1)]
    assert calls == 0
    second = r_components(ball, 2, excluded)
    calls = 0
    assert r_components(ball, 2, excluded) == second
    assert calls == 0
    assert ball.elements is elements and ball.layer_sizes == layer_sizes
    assert len(ball) == size
    assert [len(s) for s in spheres] == list(layer_sizes)
    assert [x for s in spheres for x in s] == list(elements)
