"""Infinite vertex-group backends: free abelian Z^n and free F_n.

Elements are plain hashable values:

* free_abelian -- tuple of n ints (the exponent vector)
* free         -- tuple of nonzero signed 1-based letters, freely reduced

A finite vertex group is its own backend (:class:`amalgam_lab.groups.FiniteGroup`,
elements are table indices) and answers the same calls.

Reduction is idempotent by construction and equality is literal equality of
the canonical value, so the word problem is a comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import Walk

Elem = object  # int | tuple[int, ...]

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
    """Z^n or F_n: an infinite group the toolkit can do exact arithmetic in."""

    kind: str
    rank: int = 0
    generator_labels: tuple[str, ...] = ()

    is_finite = False

    @staticmethod
    def free_abelian(rank: int) -> GroupBackend:
        labels = tuple(f"x{i + 1}" for i in range(rank))
        return GroupBackend(kind=FREE_ABELIAN, rank=rank, generator_labels=labels)

    @staticmethod
    def free(rank: int) -> GroupBackend:
        labels = tuple(f"x{i + 1}" for i in range(rank))
        return GroupBackend(kind=FREE, rank=rank, generator_labels=labels)

    # --- basic arithmetic ---------------------------------------------------

    def identity(self) -> Elem:
        if self.kind == FREE_ABELIAN:
            return (0,) * self.rank
        return ()

    def mul(self, a: Elem, b: Elem) -> Elem:
        if self.kind == FREE_ABELIAN:
            return tuple(x + y for x, y in zip(a, b))
        return reduce_free_word(list(a) + list(b))

    def inv(self, a: Elem) -> Elem:
        if self.kind == FREE_ABELIAN:
            return tuple(-x for x in a)
        return tuple(-l for l in reversed(a))

    def is_identity(self, a: Elem) -> bool:
        return a == self.identity()

    def reduce(self, a: Elem) -> Elem:
        """Canonicalize a raw word/vector."""
        if self.kind == FREE:
            return reduce_free_word(a)
        return tuple(a)

    # --- ordering and display ----------------------------------------------

    def sort_key(self, a: Elem):
        """Total order: shortlex."""
        if self.kind == FREE_ABELIAN:
            return (sum(abs(x) for x in a),) + tuple(a)
        return (len(a),) + tuple((abs(l), 0 if l > 0 else 1) for l in a)

    def gen_length(self, a: Elem) -> int:
        """Word length over the standard generators and their inverses."""
        if self.kind == FREE_ABELIAN:
            return sum(abs(x) for x in a)
        return len(a)

    def label(self, a: Elem) -> str:
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
        if self.kind == FREE_ABELIAN:
            return [tuple(1 if j == i else 0 for j in range(self.rank)) for i in range(self.rank)]
        return [(i + 1,) for i in range(self.rank)]

    def ball(self, radius: int, budget: int | None = None) -> list[Elem]:
        """All elements of generator-length <= radius, in shortlex order."""
        steps = self.generators() + [self.inv(g) for g in self.generators()]
        walk = Walk(self.identity(), steps, self.mul, budget, "backend ball").run(radius)
        return sorted(walk.elements, key=self.sort_key)
