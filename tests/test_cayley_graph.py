"""The Cayley ball as an indexed graph: neighbour tables against exact
products, R-components against the all-pairs word-metric oracle, and the
tables being built once per ball and R."""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgam_lab.corpus import NAMES
from amalgam_lab.fundgroup import FundamentalGroup
from amalgam_lab.separation import r_components

from conftest import SL2Z, make_fg

INPUTS = [*NAMES, "sl2z"]
# the all-pairs oracle is quadratic: z2z2's radius-3 ball has 337 elements
RADIUS = {"z2z2": 2}


@functools.cache
def _ball(name: str):
    """(group, ball, memoised fg.dist, elements just outside the ball)."""
    _, _, fg = make_fg(SL2Z if name == "sl2z" else name)
    radius = RADIUS.get(name, 3)
    ball = fg.word_metric_ball(radius)
    outside = fg.word_metric_ball(radius + 1).sphere(radius + 1)
    return fg, ball, functools.cache(fg.dist), outside


@pytest.mark.parametrize("R", [1, 2])
@pytest.mark.parametrize("name", INPUTS)
def test_neighbour_table_entries_are_exact_products(name, R):
    fg, ball, _, _ = _ball(name)
    shifts = fg.word_metric_ball(R).elements[1:]
    table = ball.neighbours(R)
    assert len(table) == len(ball) * len(shifts)
    for i, x in enumerate(ball.elements):
        for j, s in enumerate(shifts):
            assert table[i * len(shifts) + j] == ball.index.get(fg.multiply(x, s), -1)


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
    oracle = r_components(list(ball.elements), R, excluded, dist=dist)
    assert r_components(ball, R, excluded) == oracle
    assert r_components(ball, R, excluded, dist=dist) == oracle
    assert r_components(list(ball.elements), R, excluded) == oracle


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
    first = r_components(ball, 1, excluded)
    assert calls > 0
    calls = 0
    assert r_components(ball, 1, excluded) == first
    for x in ball.elements:
        ball.neighbors(x)
    spheres = [ball.sphere(k) for k in range(ball.radius + 1)]
    assert calls == 0
    r_components(ball, 2, excluded)
    assert calls > 0
    assert ball.elements is elements and ball.layer_sizes == layer_sizes
    assert len(ball) == size
    assert [len(s) for s in spheres] == list(layer_sizes)
    assert [x for s in spheres for x in s] == list(elements)
    assert all(ball.depth[x] == k for k, s in enumerate(spheres) for x in s)
