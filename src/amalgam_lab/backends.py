"""Vertex-group backends: finite (table), free abelian Z^n, free F_n.

Elements are plain hashable values:

* finite      -- int index into the table
* free_abelian -- tuple of n ints (the exponent vector)
* free         -- tuple of nonzero signed 1-based letters, freely reduced

Reduction is idempotent by construction and equality is literal equality of
the canonical value, so the word problem is a comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import FiniteGroup, bfs

Elem = object  # int | tuple[int, ...]

FINITE = "finite"
FREE_ABELIAN = "free_abelian"
FREE = "free"


def reduce_free_word(letters) -> tuple[int, ...]:
    out: list[int] = []
    for l in letters:
        if l == 0:
            raise ValueError("0 is not a letter")
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


@dataclass(frozen=True)
class GroupBackend:
    """A group the toolkit can do exact arithmetic in."""

    kind: str
    rank: int = 0
    finite: FiniteGroup | None = None
    generator_labels: tuple[str, ...] = ()

    @staticmethod
    def from_finite(group: FiniteGroup) -> GroupBackend:
        non_identity = tuple(
            group.label(g) for g in group.elements() if g != group.identity_index
        )
        return GroupBackend(kind=FINITE, finite=group, generator_labels=non_identity)

    @staticmethod
    def free_abelian(rank: int) -> GroupBackend:
        labels = tuple(f"x{i + 1}" for i in range(rank))
        return GroupBackend(kind=FREE_ABELIAN, rank=rank, generator_labels=labels)

    @staticmethod
    def free(rank: int) -> GroupBackend:
        labels = tuple(f"x{i + 1}" for i in range(rank))
        return GroupBackend(kind=FREE, rank=rank, generator_labels=labels)

    # --- basic arithmetic ---------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.kind == FINITE

    @property
    def order(self) -> int | None:
        return self.finite.order if self.is_finite else None

    def identity(self) -> Elem:
        if self.kind == FINITE:
            return self.finite.identity_index
        if self.kind == FREE_ABELIAN:
            return (0,) * self.rank
        return ()

    def mul(self, a: Elem, b: Elem) -> Elem:
        if self.kind == FINITE:
            return self.finite.mul(a, b)
        if self.kind == FREE_ABELIAN:
            return tuple(x + y for x, y in zip(a, b))
        return reduce_free_word(list(a) + list(b))

    def inv(self, a: Elem) -> Elem:
        if self.kind == FINITE:
            return self.finite.inv(a)
        if self.kind == FREE_ABELIAN:
            return tuple(-x for x in a)
        return tuple(-l for l in reversed(a))

    def is_identity(self, a: Elem) -> bool:
        return a == self.identity()

    def reduce(self, a: Elem) -> Elem:
        """Canonicalize a raw word/vector (no-op for finite indices)."""
        if self.kind == FREE:
            return reduce_free_word(a)
        if self.kind == FREE_ABELIAN:
            return tuple(a)
        return a

    # --- ordering and display ----------------------------------------------

    def sort_key(self, a: Elem):
        """Total order: index order for finite, shortlex for backends."""
        if self.kind == FINITE:
            return (a,)
        if self.kind == FREE_ABELIAN:
            return (sum(abs(x) for x in a),) + tuple(a)
        return (len(a),) + tuple((abs(l), 0 if l > 0 else 1) for l in a)

    def gen_length(self, a: Elem) -> int:
        """Word length over the standard generators and their inverses."""
        if self.kind == FINITE:
            raise ValueError("use per-vertex BFS tables for finite groups")
        if self.kind == FREE_ABELIAN:
            return sum(abs(x) for x in a)
        return len(a)

    def label(self, a: Elem) -> str:
        if self.kind == FINITE:
            return self.finite.label(a)
        if self.kind == FREE_ABELIAN:
            if all(x == 0 for x in a):
                return "e"
            parts = []
            for i, x in enumerate(a):
                if x == 1:
                    parts.append(self.generator_labels[i])
                elif x != 0:
                    parts.append(f"{self.generator_labels[i]}^{x}")
            return "*".join(parts)
        if not a:
            return "e"
        parts = []
        for l in a:
            name = self.generator_labels[abs(l) - 1]
            parts.append(name if l > 0 else f"{name}^-1")
        return "*".join(parts)

    def generators(self) -> list[Elem]:
        if self.kind == FINITE:
            return [g for g in self.finite.elements() if g != self.finite.identity_index]
        if self.kind == FREE_ABELIAN:
            return [tuple(1 if j == i else 0 for j in range(self.rank)) for i in range(self.rank)]
        return [(i + 1,) for i in range(self.rank)]

    def ball(self, radius: int, budget: int | None = None) -> list[Elem]:
        """All elements of generator-length <= radius, in shortlex order."""
        if self.kind == FINITE:
            raise ValueError("finite backends enumerate via .finite.elements()")
        depth: dict[Elem, int] = {}
        steps = self.generators() + [self.inv(g) for g in self.generators()]
        for _ in bfs(self.identity(), steps, self.mul, depth, radius, budget, "backend ball"):
            pass
        return sorted(depth, key=self.sort_key)
