"""Finite groups given extensionally by multiplication table, and their embeddings.

Elements of a :class:`FiniteGroup` are plain integer indices into the table;
``labels`` is only a naming layer.  A finite vertex group is its own backend:
it answers the same arithmetic, ordering and display calls as the Z^n and F_n
backends of :mod:`amalgam_lab.backends`.  All validation happens once, in
:func:`check_group` / :func:`check_monomorphism`, which returns the
embedding's tables as an :class:`EdgeEmbedding`; the resulting objects are
immutable and safe to share.  :class:`Walk` is the package's one breadth-first
walk, of any Cayley graph; callers read its layers and parents.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from .errors import (
    BudgetExceeded,
    NoIdentity,
    NotASubgroup,
    NotAssociative,
    NotHomomorphism,
    NotInjective,
    NotLatinSquare,
)


# a step-table entry that no product has filled yet; in a finished table, a
# product that leaves the ball
UNSET = -1


class Walk:
    """A breadth-first walk of the Cayley graph of ``steps`` from ``start``,
    grown a layer per call of :meth:`grow`, that records what it finds.

    ``elements`` lists them in discovery order (by layer, then by the
    position of the element reaching them, then by step); ``index`` maps each
    to its position.  Layer k is ``elements[layer_starts[k]:layer_starts[k +
    1]]``, and position q > 0 was first reached as ``elements[parent[q]] *
    steps[step[q]]``.

    Given ``inverse`` (``steps[inverse[i]]`` inverts ``steps[i]``), the walk
    keeps the step table: entry ``p * len(steps) + i`` of ``table`` is the
    position of ``elements[p] * steps[i]``, or -1 (:data:`UNSET`), one value
    for "unfilled" and "outside".  A product a * steps[i] = b, new or not,
    also fills b's entry for ``steps[inverse[i]]``, and no filled entry is
    multiplied, so no inverse pair is formed twice.  A layer walked from has
    complete rows; the newest layer's are complete once :meth:`close` forms
    each entry still -1 in the loop that grows a layer, adding no element.

    Past ``budget`` elements (None: no limit) the walk raises
    :class:`BudgetExceeded` naming ``name``, mid-layer: the caller drops it.
    """

    def __init__(self, start, steps, mul, budget: int | None = None,
                 name: str = "breadth-first walk", inverse=None):
        self.steps, self.mul, self.budget, self.name = tuple(steps), mul, budget, name
        self.elements, self.index, self.layer_starts = [start], {start: 0}, [0, 1]
        self.parent, self.step = array("i", [UNSET]), array("i", [UNSET])
        self.inverse = inverse
        self.table = None if inverse is None else array("i", [UNSET]) * len(self.steps)

    def grow(self) -> bool:
        """Walk one layer further; False if it is empty: the walk holds the
        whole group."""
        self._pass(grow=True)
        self.layer_starts.append(len(self.elements))
        return self.layer_starts[-1] > self.layer_starts[-2]

    def run(self, radius: int | None = None) -> "Walk":
        """Grow to layer ``radius``, or (None) until a layer is empty."""
        while (radius is None or len(self.layer_starts) - 2 < radius) and self.grow():
            pass
        return self

    def close(self) -> None:
        """Form each entry still -1 in the newest layer's rows."""
        self._pass(grow=False)

    def _pass(self, grow: bool) -> None:
        """Multiply the newest layer by each step with an unfilled entry."""
        steps, mul, index, elements = self.steps, self.mul, self.index, self.elements
        table, inverse, m = self.table, self.inverse, len(steps)
        blank = array("i", [UNSET]) * m
        for p in range(self.layer_starts[-2], self.layer_starts[-1]):
            a, row = elements[p], p * m
            for i, s in enumerate(steps):
                if table is not None and table[row + i] != UNSET:
                    continue
                b = mul(a, s)
                q = index.get(b)
                if q is None:
                    if not grow:
                        continue
                    q = index[b] = len(elements)
                    if self.budget is not None and q >= self.budget:
                        raise BudgetExceeded(self.budget, self.name)
                    elements.append(b)
                    self.parent.append(p)
                    self.step.append(i)
                    if table is not None:
                        table.extend(blank)
                if table is not None:
                    table[row + i] = q
                    table[q * m + inverse[i]] = p


@dataclass(frozen=True)
class FiniteGroup:
    """A validated finite group: order, element labels, Cayley table."""

    order: int
    labels: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    identity_index: int
    _inverse: tuple[int, ...] = field(repr=False, compare=False, default=())

    is_finite = True

    @property
    def generator_labels(self) -> tuple[str, ...]:
        """The default generating set: every non-identity label, in index order."""
        return tuple(self.labels[g] for g in self.elements() if g != self.identity_index)

    def identity(self) -> int:
        return self.identity_index

    def is_identity(self, a: int) -> bool:
        return a == self.identity_index

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inverse[a]

    def sort_key(self, a: int):
        """Index order."""
        return (a,)

    def elements(self) -> range:
        return range(self.order)

    def label(self, a: int) -> str:
        return self.labels[a]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no element labelled {label!r}") from None

    def subgroup_generated(self, gens: set[int] | list[int]) -> frozenset[int]:
        """One walk from the identity over ``gens``: in a finite group the
        positive words already reach every inverse."""
        return frozenset(Walk(self.identity_index, gens, self.mul).run().elements)

    def is_subgroup(self, elems: frozenset[int]) -> bool:
        if self.identity_index not in elems:
            return False
        return all(self.mul(a, b) in elems for a in elems for b in elems) and all(
            self.inv(a) in elems for a in elems
        )


def check_group(table: list[list[int]], labels: list[str] | None = None) -> FiniteGroup:
    """Validate a multiplication table (Latin square, identity, associativity).

    Errors name the first violating cell, or a violating triple.
    """
    n = len(table)
    if n == 0:
        raise NoIdentity("empty table")
    for i, row in enumerate(table):
        if len(row) != n:
            raise NotLatinSquare(f"row {i} has length {len(row)}, expected {n}")
        for j, v in enumerate(row):
            if not isinstance(v, int) or not (0 <= v < n):
                raise NotLatinSquare(f"cell ({i},{j}) holds {v!r}, not an index in 0..{n - 1}")
    for i, row in enumerate(table):
        if len(set(row)) != n:
            raise NotLatinSquare(f"row {i} is not a permutation")
    for j in range(n):
        col = [table[i][j] for i in range(n)]
        if len(set(col)) != n:
            raise NotLatinSquare(f"column {j} is not a permutation")

    identity = None
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NoIdentity("no two-sided identity element")

    # Light's test: the c with (a*b)*c == a*(b*c) for all a, b are closed
    # under products, so it is enough to test the c of a set whose products
    # from the identity reach every element, chosen greedily
    gens: list[int] = []
    reached = {identity: 0}
    while len(reached) < n:
        gens.append(next(g for g in range(n) if g not in reached))
        reached = Walk(identity, gens, lambda a, b: table[a][b]).run().index
    for c in gens:
        col = [row[c] for row in table]
        for a, row in enumerate(table):
            if [row[x] for x in col] != [col[x] for x in row]:
                b = next(b for b in range(n) if row[col[b]] != col[row[b]])
                raise NotAssociative(f"({a}*{b})*{c} != {a}*({b}*{c})")

    if labels is None:
        labels = [f"g{i}" for i in range(n)]
        labels[identity] = "e"
    if len(labels) != n or len(set(labels)) != n:
        raise ValueError("labels must be distinct and match the order")

    inverse = [0] * n
    for a in range(n):
        inverse[a] = next(b for b in range(n) if table[a][b] == identity)

    return FiniteGroup(
        order=n,
        labels=tuple(labels),
        table=tuple(tuple(row) for row in table),
        identity_index=identity,
        _inverse=tuple(inverse),
    )


def cyclic_group(n: int, gen_label: str = "a") -> FiniteGroup:
    """Z/n with elements e, a, a2, ..., a{n-1} and table (i+j) mod n."""
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    if n == 1:
        labels = ["e"]
    else:
        labels = ["e", gen_label] + [f"{gen_label}{k}" for k in range(2, n)]
    return check_group(table, labels)


TRIVIAL_GROUP = cyclic_group(1)


def cosets(group: FiniteGroup, subgroup_elements, side: str = "left") -> list[tuple[int, ...]]:
    """Partition ``group`` into cosets of a subgroup.

    The first coset is the subgroup itself; within a coset elements are
    sorted by index, and cosets are sorted by least element.
    """
    sub = frozenset(subgroup_elements)
    if not group.is_subgroup(sub):
        raise NotASubgroup(f"{sorted(sub)} is not closed under product and inverse")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    seen: set[int] = set()
    out: list[tuple[int, ...]] = []
    sub_sorted = tuple(sorted(sub))
    out.append(sub_sorted)
    seen.update(sub)
    rest = []
    for g in group.elements():
        if g in seen:
            continue
        if side == "left":
            coset = tuple(sorted(group.mul(g, h) for h in sub))
        else:
            coset = tuple(sorted(group.mul(h, g) for h in sub))
        rest.append(coset)
        seen.update(coset)
    rest.sort(key=lambda c: c[0])
    return out + rest


class EdgeEmbedding:
    """A validated monomorphism i: H -> G of finite groups, as tables built once.

    ``decompose[g] = (h, r)`` writes g = i(h) * r with r the least element of
    the right coset im*g: the representative normal forms keep.  The least
    elements of the left cosets g*im, sorted, parametrize the star of a tree
    vertex.  Built only by :func:`check_monomorphism`.
    """

    def __init__(self, source: FiniteGroup, target: FiniteGroup, image: tuple[int, ...]):
        G = target
        self.edge_group = source
        self.target = target
        self._image = image
        self._pre = {b: a for a, b in enumerate(image)}
        decompose = []
        for g in G.elements():
            r = min(G.mul(m, g) for m in image)
            decompose.append((self._pre[G.mul(g, G.inv(r))], r))
        self.decompose = tuple(decompose)
        lreps = {min(G.mul(g, m) for m in image) for g in G.elements()}
        self._lcoset_reps = tuple(sorted(lreps))

    def apply(self, h: int) -> int:
        return self._image[h]

    def contains(self, g: int) -> bool:
        return g in self._pre

    def preimage(self, g: int) -> int:
        return self._pre[g]

    def index_in_target(self) -> int:
        """[G : im]."""
        return self.target.order // self.edge_group.order

    def right_decompose(self, g: int) -> tuple[int, int]:
        """g = apply(h) * r with r the canonical right-coset representative."""
        return self.decompose[g]

    def left_coset_reps(self) -> tuple[int, ...]:
        """Least elements of the cosets g*im, sorted."""
        return self._lcoset_reps


def check_monomorphism(source: FiniteGroup, target: FiniteGroup, mapping) -> EdgeEmbedding:
    """Validate ``mapping`` (list of target indices, one per source element)
    and return its embedding tables."""
    m = tuple(mapping)
    if len(m) != source.order:
        raise NotHomomorphism(f"map has {len(m)} entries, source order is {source.order}")
    for b in m:
        if not (0 <= b < target.order):
            raise NotHomomorphism(f"image index {b} out of range")
    if m[source.identity_index] != target.identity_index:
        raise NotHomomorphism("identity is not mapped to identity")
    for a in source.elements():
        for b in source.elements():
            if m[source.mul(a, b)] != target.mul(m[a], m[b]):
                raise NotHomomorphism(f"map({a}*{b}) != map({a})*map({b})")
    for a in source.elements():
        for b in source.elements():
            if a != b and m[a] == m[b]:
                raise NotInjective(f"elements {a} and {b} share the image {m[a]}")
    return EdgeEmbedding(source, target, m)
