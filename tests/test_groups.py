from __future__ import annotations

import itertools
import random
import re
import time

import pytest

from amalgam_lab.backends import GroupBackend
from amalgam_lab.errors import (
    NotASubgroup,
    NotAssociative,
    NotHomomorphism,
    NotInjective,
    NotLatinSquare,
)
from amalgam_lab.groups import (
    check_group,
    check_monomorphism,
    cosets,
    cyclic_group,
)

from abelianization_oracle import abelian_invariants
from conftest import ALL_TEXTS, make_fg


def test_trivial_group():
    g = check_group([[0]])
    assert g.order == 1 and g.identity_index == 0


def test_z2_valid():
    g = check_group([[0, 1], [1, 0]])
    assert g.order == 2
    assert g.mul(1, 1) == 0
    assert g.inv(1) == 1


def test_not_latin_square():
    with pytest.raises(NotLatinSquare):
        check_group([[0, 1], [1, 1]])


def test_no_identity():
    # the subtraction table mod 3 is a Latin square with no two-sided identity
    from amalgam_lab.errors import NoIdentity
    with pytest.raises(NoIdentity):
        check_group([[0, 2, 1], [1, 0, 2], [2, 1, 0]])


def test_associativity_exhaustive():
    g = cyclic_group(6)
    for a, b, c in itertools.product(g.elements(), repeat=3):
        assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
    for a in g.elements():
        assert g.mul(a, g.inv(a)) == g.identity_index


def _reduced_latin_squares(n: int):
    """Every n x n Latin square whose first row and column are 0..n-1: the
    loops on 0..n-1 with identity 0."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]

    def fill(cell):
        if cell == n * n:
            yield [row[:] for row in rows]
            return
        i, j = divmod(cell, n)
        if rows[i][j] is not None:
            yield from fill(cell + 1)
            return
        for v in set(range(n)) - set(rows[i]) - {rows[k][j] for k in range(n)}:
            rows[i][j] = v
            yield from fill(cell + 1)
        rows[i][j] = None

    return fill(0)


def _violates(table, message) -> bool:
    a, b, c = map(int, re.fullmatch(r"NotAssociative: \((\d+)\*(\d+)\)\*(\d+) != .*",
                                    message).groups())
    return table[table[a][b]][c] != table[a][table[b][c]]


def test_associativity_matches_all_triples_on_every_loop_of_order_5():
    """Light's test against all n^3 triples, on each of the 56 loops of order 5,
    and the named triple is a real violation."""
    loops = list(_reduced_latin_squares(5))
    assert len(loops) == 56
    groups = 0
    for table in loops:
        associative = all(table[table[a][b]][c] == table[a][table[b][c]]
                          for a, b, c in itertools.product(range(5), repeat=3))
        try:
            check_group(table)
        except NotAssociative as exc:
            assert not associative and _violates(table, str(exc))
        else:
            assert associative
            groups += 1
    assert groups == 6      # Z/5 in its 4!/|Aut(Z/5)| labellings that fix 0


LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]]
# Z/2 x LOOP5 with (x, m) at 2m + x: the element 1 = (1, e) associates with
# every pair, so only a test set that reaches every element finds a violation
LOOP10 = [[2 * LOOP5[m][k] + (x + y) % 2 for k in range(5) for y in range(2)]
          for m in range(5) for x in range(2)]


@pytest.mark.parametrize("table", [LOOP5, LOOP10], ids=["loop5", "z2-x-loop5"])
def test_non_associative_loop_rejected(table):
    with pytest.raises(NotAssociative) as err:
        check_group(table)
    assert _violates(table, str(err.value))


def test_large_cyclic_group_validates_fast():
    t0 = time.perf_counter()
    g = cyclic_group(360)
    assert time.perf_counter() - t0 < 0.5
    assert g.order == 360 and g.mul(359, 2) == 1


def test_cosets_trivial_subgroup():
    g = cyclic_group(2)
    assert cosets(g, {0}, "left") == [(0,), (1,)]
    g3 = cyclic_group(3)
    assert cosets(g3, {0}, "left") == [(0,), (1,), (2,)]


def test_cosets_z6_brute_force_orbit():
    g = cyclic_group(6)
    got = cosets(g, {0, 3}, "left")
    # independent oracle: orbit of each element under translation by {0, 3}
    expected = []
    seen = set()
    expected.append((0, 3))
    seen.update({0, 3})
    for x in range(6):
        if x in seen:
            continue
        orbit = tuple(sorted((x + h) % 6 for h in (0, 3)))
        expected.append(orbit)
        seen.update(orbit)
    assert got == expected == [(0, 3), (1, 4), (2, 5)]


def test_cosets_partition_properties():
    g = cyclic_group(12)
    for sub in ({0, 6}, {0, 4, 8}, {0, 3, 6, 9}):
        for side in ("left", "right"):
            cs = cosets(g, sub, side)
            union = sorted(x for c in cs for x in c)
            assert union == list(range(12))
            assert all(len(c) == len(sub) for c in cs)
            assert cs[0] == tuple(sorted(sub))


def test_cosets_rejects_non_subgroup():
    g = cyclic_group(6)
    with pytest.raises(NotASubgroup):
        cosets(g, {0, 2}, "left")


def test_monomorphism_trivial_into_z2():
    t = cyclic_group(1)
    g = cyclic_group(2)
    m = check_monomorphism(t, g, [0])
    assert m.apply(0) == 0


def test_monomorphism_z2_into_z4():
    m = check_monomorphism(cyclic_group(2), cyclic_group(4), [0, 2])
    assert [g for g in range(4) if m.contains(g)] == [0, 2]
    assert m.index_in_target() == 2 and m.left_coset_reps() == (0, 1)


def test_monomorphism_order_mismatch():
    with pytest.raises(NotHomomorphism):
        check_monomorphism(cyclic_group(2), cyclic_group(3), [0, 1])


def test_monomorphism_not_injective():
    with pytest.raises(NotInjective):
        check_monomorphism(cyclic_group(2), cyclic_group(2), [0, 0])


@pytest.mark.parametrize("backend", [GroupBackend.free_abelian(2), GroupBackend.free(2)])
def test_backend_reduction_idempotent_and_inverses(backend):
    rng = random.Random(1)
    gens = backend.generators()
    steps = gens + [backend.inv(g) for g in gens]
    for _ in range(1000):
        w = backend.identity()
        for _ in range(rng.randrange(12)):
            w = backend.mul(w, steps[rng.randrange(len(steps))])
        assert backend.reduce(w) == w
        assert backend.mul(w, backend.inv(w)) == backend.identity()


def test_backend_sort_keys_are_total():
    backend = GroupBackend.free(2)
    ball = backend.ball(3)
    keys = [backend.sort_key(x) for x in ball]
    assert len(set(keys)) == len(ball)
    assert keys == sorted(keys)


def test_abelian_invariants_cyclic():
    assert abelian_invariants(cyclic_group(6)) == (6,)
    assert abelian_invariants(cyclic_group(1)) == ()


def test_abelian_invariants_s3():
    # S3 as a multiplication table: elements e, r, r2, s, sr, sr2
    import itertools as it
    perms = list(it.permutations(range(3)))

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    table = [[perms.index(compose(p, q)) for q in perms] for p in perms]
    g = check_group(table)
    assert abelian_invariants(g) == (2,)


def _product_closure(G, gens) -> frozenset[int]:
    """Every product of two members and every inverse, until nothing is new."""
    closure = {G.identity_index, *gens}
    while True:
        new = {G.mul(a, b) for a in closure for b in closure} | {G.inv(a) for a in closure}
        if new <= closure:
            return frozenset(closure)
        closure |= new


@pytest.mark.parametrize("name", ALL_TEXTS)
def test_subgroup_generated_is_the_product_closure(name):
    """On every finite vertex and edge group: for each single element, and
    for the vertex generators S_v."""
    gog, _, _ = make_fg(ALL_TEXTS[name])
    finite = [(G, [e for _, e in gens])
              for G, gens in zip(gog.vertex_groups, gog.generating_sets) if G.is_finite]
    for G, S_v in finite + [(H, None) for H in gog.edge_groups]:
        for g in G.elements():
            assert G.subgroup_generated({g}) == _product_closure(G, [g])
        if S_v is not None:
            assert G.subgroup_generated(S_v) == _product_closure(G, S_v) == frozenset(G.elements())
