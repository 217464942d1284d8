from __future__ import annotations

import random

import pytest

from amalgam_lab.bass_serre import TreeBall
from amalgam_lab.corpus import NAMES, text
from amalgam_lab.dsl import parse_gog
from amalgam_lab.fundgroup import DEFAULT_BALL_BUDGET, FundamentalGroup, NormalForm
from amalgam_lab.gog import spanning_tree


# SL(2,Z) = Z/4 *_{Z/2} Z/6: a non-trivial finite edge group, so the word
# metric takes the global-BFS wordlen fallback and the presentation needs
# word maps inside both finite vertex groups
SL2Z = """\
group A cyclic 4
group B cyclic 6
group E cyclic 2
vertex v1 A gens [a]
vertex v2 B gens [a]
edge e1 v1 -- v2 group E embed_fwd {a:a3} embed_bwd {a:a2}
"""

# Z/2 * Z/2 with a third Z/2 hung on v1 by an isomorphism: every v1 coset
# has one child edge whose v3 vertex has no children, a dead end
DEAD_ENDS = """\
group A cyclic 2
group E cyclic 2
vertex v1 A gens [a]
vertex v2 A gens [a]
vertex v3 A gens [a]
edge e1 v1 -- v2 group trivial embed_fwd {} embed_bwd {}
edge e2 v1 -- v3 group E embed_fwd {a:a} embed_bwd {a:a}
"""

# Z/2 -(Z/2)- Z/2 with both maps isomorphisms: collapsing e1 leaves Z/2
SEGMENT = """\
group A cyclic 2
group B table [[0,1],[1,0]] labels [e,b]
group E cyclic 2
vertex v1 A gens [a]
vertex v2 B gens [b]
edge e1 v1 -- v2 group E embed_fwd {a:b} embed_bwd {a:a}
"""

# Z/2 -(Z/2)- Z/4: only the reverse orientation ~e1 is an isomorphism
REV = """\
group A cyclic 2
group B cyclic 4
group E cyclic 2
vertex v1 A gens [a]
vertex v2 B gens [a]
edge e1 v1 -- v2 group E embed_fwd {a:a2} embed_bwd {a:a}
"""

# a trivial edge group whose identity is not labelled e, into F_2 and Z/2
FREE_ONE = """\
group T table [[0]] labels [one]
group F free 2
group A cyclic 2
vertex v F
vertex w A gens [a]
edge t v -- w group T embed_fwd {} embed_bwd {}
"""

# finite edge groups beyond Z/2, for the junction product and the coset
# distances; test inputs only, so the corpus goldens do not grow
Z6_Z3_Z9 = """\
group A cyclic 6
group B cyclic 9
group E cyclic 3
vertex v1 A gens [a]
vertex v2 B gens [a]
edge e1 v1 -- v2 group E embed_fwd {a:a3} embed_bwd {a:a2}
"""

# an HNN extension of Z/6 conjugating a^2 to a^4, with a Z/4 leaf over Z/2
HNN_Z6 = """\
group A cyclic 6
group C cyclic 4
group E cyclic 3
group F cyclic 2
vertex v A gens [a]
vertex w C gens [a]
edge h v -- v group E embed_fwd {a:a4} embed_bwd {a:a2}
edge l v -- w group F embed_fwd {a:a2} embed_bwd {a:a3}
"""

# Z/4 *_{Z/2} Z/8 *_{Z/4} Z/12: the second edge group sits at a non-root
# vertex, so its elements are written with a tail
CHAIN = """\
group A cyclic 4
group B cyclic 8
group C cyclic 12
group E cyclic 2
group F cyclic 4
vertex v1 A gens [a]
vertex v2 B gens [a]
vertex v3 C gens [a]
edge e1 v1 -- v2 group E embed_fwd {a:a4} embed_bwd {a:a2}
edge e2 v2 -- v3 group F embed_fwd {a:a3} embed_bwd {a:a2}
"""

FINITE_EDGED = {"z6z9": Z6_Z3_Z9, "hnn6": HNN_Z6, "chain": CHAIN}

# S3 *_{Z/2} Z/4 with Z/2 onto the transposition t of S3, which is not
# normal: left and right cosets of its image differ, and the non-abelian
# vertex group makes the order of every product inside it matter
S3_Z4 = """
group S3 table [[0,1,2,3,4,5],[1,0,4,5,2,3],[2,3,0,1,5,4],[3,2,5,4,0,1],[4,5,1,0,3,2],[5,4,3,2,1,0]] labels [e,s,t,c,c2,u]
group A cyclic 4
group E cyclic 2
vertex v1 S3 gens [s,t]
vertex v2 A gens [a]
edge e1 v1 -- v2 group E embed_fwd {a:a2} embed_bwd {a:t}
"""

# Z/2 * Z with the Z/2 generator labelled like the stable letter s_e2 of the
# loop e2, so that generator takes its vertex prefix
STABLE_CLASH = """\
group A table [[0,1],[1,0]] labels [e,s_e2]
vertex v1 A gens [s_e2]
edge e2 v1 -- v1 group trivial embed_fwd {} embed_bwd {}
"""

# Z/2 * Z/2 * Z/2 as a path of trivial edges: two edge pairs, and an I_3/2
# small enough for its diameter to be measured quickly
Z2_PATH = """\
group A cyclic 2
vertex v1 A gens [a]
vertex v2 A gens [a]
vertex v3 A gens [a]
edge e1 v1 -- v2 group trivial embed_fwd {} embed_bwd {}
edge e2 v2 -- v3 group trivial embed_fwd {} embed_bwd {}
"""

# the corpus and every DSL input above but DEAD_ENDS, STABLE_CLASH and Z2_PATH, by name
GOG_TEXTS = {**{name: text(name) for name in NAMES}, "sl2z": SL2Z, **FINITE_EDGED,
             "segment": SEGMENT, "rev": REV, "free_one": FREE_ONE}
# GOG_TEXTS with the non-abelian vertex group, the dead ends and the label clash
ALL_TEXTS = {**GOG_TEXTS, "s3z4": S3_Z4, "dead_ends": DEAD_ENDS, "stable_clash": STABLE_CLASH}


def components(ball, label) -> list[list[NormalForm]]:
    """The members of each component of an ``r_components`` labelling, in
    ball order; excluded elements (label -1) are in none."""
    comps: list[list[NormalForm]] = [[] for _ in range(max(label, default=-1) + 1)]
    for x, c in zip(ball.elements, label):
        if c >= 0:
            comps[c].append(x)
    return comps


def swept_product(fg, x, y):
    """The general product, the oracle of ``multiply``: merge the junction,
    then normalize the whole word."""
    if not x.tail:
        return fg.normalize(fg.root_group.mul(x.g0, y.g0), y.tail)
    en, gn = x.tail[-1]
    merged = fg.gog.vertex_groups[fg.gog.graph.omega[en]].mul(gn, y.g0)
    return fg.normalize(x.g0, x.tail[:-1] + ((en, merged),) + y.tail)


def make_fg(name: str, ball_budget: int = DEFAULT_BALL_BUDGET):
    """A corpus input by name, or a graph of groups given as DSL text."""
    gog = parse_gog(text(name) if name in NAMES else name)
    sd = spanning_tree(gog)
    return gog, sd, FundamentalGroup(gog, sd, ball_budget)


@pytest.fixture(scope="session")
def dinf():
    return make_fg("dinf")


@pytest.fixture(scope="session")
def z2z3():
    return make_fg("z2z3")


@pytest.fixture(scope="session")
def f2():
    return make_fg("f2")


@pytest.fixture(scope="session")
def zxz2():
    return make_fg("zxz2")


@pytest.fixture(scope="session")
def z2z2():
    return make_fg("z2z2")


@pytest.fixture(scope="session")
def trivial():
    return make_fg("trivial")


@pytest.fixture(scope="session")
def zz():
    return make_fg("zz")


@pytest.fixture
def dist_calls(monkeypatch):
    """A one-element list that counts ``FundamentalGroup.dist`` calls, each
    one pair measured, for the length of the test."""
    calls = [0]
    dist = FundamentalGroup.dist

    def counted(self, x, y):
        calls[0] += 1
        return dist(self, x, y)
    monkeypatch.setattr(FundamentalGroup, "dist", counted)
    return calls


class FreeProductOracle:
    """Independent string model of C_{n_1} * ... * C_{n_k} (order 0 means Z).

    Elements are tuples of syllables (factor, exponent) with exponent != 0
    (mod the factor order), adjacent syllables in distinct factors.  This is
    the classical free-product normal form, built without any of the package's
    word machinery.
    """

    def __init__(self, orders):
        self.orders = tuple(orders)

    identity = ()

    def _norm_exp(self, f, e):
        n = self.orders[f]
        return e % n if n else e

    def mul(self, u, v):
        out = list(u)
        for f, e in v:
            if out and out[-1][0] == f:
                s = self._norm_exp(f, out[-1][1] + e)
                if s == 0:
                    out.pop()
                else:
                    out[-1] = (f, s)
            else:
                e = self._norm_exp(f, e)
                if e != 0:
                    out.append((f, e))
        return tuple(out)

    def inv(self, u):
        return tuple((f, self._norm_exp(f, -e)) for f, e in reversed(u))

    def steps(self):
        """Generator steps closed under inversion, one generator per factor;
        generators first, then the new formal inverses, matching the order
        the package's GeneratingSet uses."""
        out = [((f, 1),) for f in range(len(self.orders))]
        for f in range(len(self.orders)):
            inverse = ((f, self._norm_exp(f, -1)),)
            if inverse not in out:
                out.append(inverse)
        return out

    def ball_layers(self, radius):
        seen = {self.identity}
        frontier = [self.identity]
        layers = [1]
        for _ in range(radius):
            nxt = []
            for u in frontier:
                for s in self.steps():
                    w = self.mul(u, s)
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            layers.append(len(nxt))
            frontier = nxt
        return layers, seen


# factor orders matching the corpus generating sets
ORACLES = {
    "dinf": FreeProductOracle([2, 2]),
    "z2z3": FreeProductOracle([2, 3]),
    "f2": FreeProductOracle([0, 0]),
    "zxz2": FreeProductOracle([0, 2]),
}


# --- tree-ball walks, the group action on tree balls, and choices of phi ----


def in_subtree_walk(tree: TreeBall, vid: int, ancestor: int) -> bool:
    """Ancestry by walking parent edges to the root: the oracle for
    ``TreeBall.in_subtree``."""
    v = tree.vertices[vid]
    while True:
        if v.vid == ancestor:
            return True
        if v.up is None:
            return False
        v = v.up


def eager_rep(ball: TreeBall, vid: int, multiply=FundamentalGroup.multiply) -> NormalForm:
    """A vertex's rep as the eager build formed it: the star steps along its
    root path, multiplied in from the identity.  ``multiply`` defaults to the
    unpatched product, so a test that counts products can still call this."""
    rep = ball.fg.identity()
    for c in ball.root_path(vid):
        rep = multiply(ball.fg, rep, ball.vertices[c].step)
    return rep


def translate_vertex(ball: TreeBall, gamma: NormalForm, vid: int) -> int | None:
    """Image of a ball vertex under left translation, if still in the ball."""
    v = ball.vertices[vid]
    return ball.find_vertex(ball.fg.multiply(gamma, v.rep), v.vtype)


def translate_edge(ball: TreeBall, gamma: NormalForm, child: int) -> int | None:
    """Image of the ball edge into vertex child under left translation, as
    its child vid, if still in the ball."""
    c = ball.vertices[child]
    return ball.find_edge(ball.fg.multiply(gamma, c.edge_rep), c.pair)


def phi_random(ball: TreeBall, child: int, rng: random.Random) -> NormalForm:
    """A uniformly random member of the edge coset: another choice of phi."""
    elems = ball.edge_coset_elements(child)
    return elems[rng.randrange(len(elems))]


def phi_spread_bound(fg: FundamentalGroup) -> int:
    """D = max over edge pairs of the d_S-diameter of the edge subgroup;
    any two choices of phi differ by at most D on every edge coset."""
    g = fg.gog.graph
    best = 0
    for k in range(g.n_edges):
        elems = fg.edge_subgroup_elements(k)
        for a in elems:
            for b in elems:
                best = max(best, fg.dist(a, b))
    return best
