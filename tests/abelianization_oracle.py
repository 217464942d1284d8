"""Independent abelianization oracle for finite groups given by a table.

No production path needs it: the tests compare the presentation machinery's
abelianization against it, so it stays apart from ``amalgam_lab``.
"""

from __future__ import annotations

from amalgam_lab.groups import FiniteGroup, check_group, cosets


def element_order(group: FiniteGroup, a: int) -> int:
    n, x = 1, a
    while x != group.identity_index:
        x = group.mul(x, a)
        n += 1
    return n


def commutator_subgroup(group: FiniteGroup) -> frozenset[int]:
    comms = {
        group.mul(group.mul(a, b), group.mul(group.inv(a), group.inv(b)))
        for a in group.elements()
        for b in group.elements()
    }
    return group.subgroup_generated(comms)


def abelian_invariants(group: FiniteGroup) -> tuple[int, ...]:
    """Invariant factors (d1 | d2 | ...) of G/[G,G], computed from the table.

    Independent of any presentation machinery: quotient by the commutator
    subgroup, then peel off maximal-order cyclic factors.
    """
    comm = commutator_subgroup(group)
    classes = cosets(group, comm, side="left")
    rep_of: dict[int, int] = {}
    for idx, c in enumerate(classes):
        for g in c:
            rep_of[g] = idx
    size = len(classes)
    mul = [[0] * size for _ in range(size)]
    for i, c in enumerate(classes):
        for j, d in enumerate(classes):
            mul[i][j] = rep_of[group.mul(c[0], d[0])]
    quotient = check_group(mul)

    # peel: repeatedly take an element of maximal order in the remaining quotient
    factors: list[int] = []
    current = quotient
    while current.order > 1:
        best = max(current.elements(), key=lambda a: element_order(current, a))
        factors.append(element_order(current, best))
        sub = current.subgroup_generated({best})
        classes2 = cosets(current, sub, side="left")
        rep2: dict[int, int] = {}
        for idx, c in enumerate(classes2):
            for g in c:
                rep2[g] = idx
        mul2 = [[rep2[current.mul(c[0], d2[0])] for d2 in classes2] for c in classes2]
        current = check_group(mul2)
    # invariant factor convention: d1 | d2 | ... | dk, largest last
    return tuple(sorted(factors))
