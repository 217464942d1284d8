"""Independent check that ``sl2z.gog`` is SL(2,Z), by 2x2 integer matrices.

SL(2,Z) = Z/4 *_{Z/2} Z/6 with a = S = [[0,-1],[1,0]] of order 4 and
b = ST = [[0,-1],[1,1]] of order 6, amalgamated over S^2 = (ST)^3 = -I.
Words over a, b and their inverses are evaluated twice: by the toolkit's
normal forms (``FundamentalGroup.evaluate_word``) and by matrix products.
The identity decision of every word and the equality decision of every pair
must agree.  Since the map to matrices is an isomorphism, any disagreement
is a wrong answer of the toolkit's word problem (or a wrong input file).
"""

from __future__ import annotations

import random

I = ((1, 0), (0, 1))
S = ((0, -1), (1, 0))
ST = ((0, -1), (1, 1))


def _mul(m, n):
    return tuple(tuple(sum(m[i][k] * n[k][j] for k in range(2)) for j in range(2))
                 for i in range(2))


def _inv(m):  # determinant 1
    (p, q), (r, s) = m
    return ((s, -q), (-r, p))


MATRICES = {"a": S, "b": ST, "a^-1": _inv(S), "b^-1": _inv(ST)}
RELATORS = (("a",) * 4, ("b",) * 6, ("a", "a", "b^-1", "b^-1", "b^-1"))
FIXED_WORDS = (
    (), ("a",), ("b",), ("a", "a"), ("b", "b", "b"), ("a",) * 4, ("b",) * 6,
    ("a", "b"), ("b", "a"), ("a", "b", "a", "b", "a", "b"),
    ("a", "b^-1", "a^-1", "b"), ("b", "a", "b^-1", "a^-1") * 3,
)


def _matrix(word):
    m = I
    for letter in word:
        m = _mul(m, MATRICES[letter])
    return m


def _order(m) -> int:
    k, p = 1, m
    while p != I:
        p = _mul(p, m)
        k += 1
    return k


def words(seed: int, count: int = 40, max_len: int = 12) -> list[tuple[str, ...]]:
    """Fixed words, random words, and random words with a relator inserted
    (equal to the word without it), all determined by ``seed``."""
    rng = random.Random(seed)
    letters = sorted(MATRICES)
    out = list(FIXED_WORDS)
    for _ in range(count):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(1, max_len)))
        cut = rng.randint(0, len(w))
        out.append(w)
        out.append(w[:cut] + rng.choice(RELATORS) + w[cut:])
    return out


def check_sl2z(fg, seed: int) -> list[str]:
    """Disagreements between ``fg`` and SL(2,Z) matrices; empty when it is SL(2,Z)."""
    problems = []
    minus_i = ((-1, 0), (0, -1))
    if (_order(S), _order(ST), _matrix("aa"), _matrix("bbb")) != (4, 6, minus_i, minus_i):
        problems.append("oracle matrices do not satisfy S^4 = (ST)^6 = I, S^2 = (ST)^3 = -I")
    if sorted(fg.generating_set().labels) != ["a", "b"]:
        return problems + [f"generators {fg.generating_set().labels}, expected a, b"]
    ws = words(seed)
    forms = [fg.evaluate_word(list(w)) for w in ws]
    mats = [_matrix(w) for w in ws]
    for w, x, m in zip(ws, forms, mats):
        if x.is_identity() != (m == I):
            problems.append(f"identity decision differs on {'*'.join(w) or 'e'}")
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            if (forms[i] == forms[j]) != (mats[i] == mats[j]):
                problems.append(f"equality decision differs on {'*'.join(ws[i]) or 'e'}"
                                f" vs {'*'.join(ws[j]) or 'e'}")
    return problems
