from __future__ import annotations

import itertools
import random

import pytest

from amalgam_lab.backends import GroupBackend
from amalgam_lab.errors import (
    NotASubgroup,
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
