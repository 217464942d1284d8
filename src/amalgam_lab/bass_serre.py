"""Finite portions of the Bass-Serre tree: coset vertices and edges, BFS
balls, geodesics, edge splits and the tiling tree.

A tree vertex is the coset rep*G_v; a tree edge the coset mu*G_y (edge
subgroups are finite, so edge cosets are enumerated exactly).  Each non-root
vertex has one parent edge, so an edge is named by its child's vid.
Artifacts print the edge into c as edge c - 1.

The star of a vertex of type v is parametrized by pairs (y, g) with
omega(y) = v and g ranging over coset representatives of im(i_y) in G_v;
crossing the edge multiplies by the stable letter of bar(y) for non-tree
types.  The step g·t_{bar y} (g alone on a tree edge) is formed once per
vertex type, and the build forms no other product: a child's rep, its
parent's rep·step, is formed on first read.  A crossing against the
orientation A also records g, and the edge coset's representative, the
parent's rep·g, is likewise formed on first read.

A vertex's children depend only on its cone type (Cannon): its vertex type
and ``back``, the type of its parent edge seen from it (None at the root).
The cone of (v, back) is the star of v without the candidate of type back
whose g lies in im(i_back).  That candidate is the parent: if c.rep =
u.rep·g·t_{bar y} and g' = i_{bar y}(h), then c.rep·g'·t_y = u.rep·g·i_y(h),
since t_{bar y}·i_{bar y}(h)·t_y = i_y(h), and this lies in u's coset; by
normal forms, no g' outside im(i_{bar y}) does.  A backend star holds the
identity (``star_small >= 1``), its one member of the trivial image.  A tree
has no cycles (Serre, *Trees*, I.4), so every other candidate is a new vertex
with a new parent edge, and no coset needs a key.

So the ball is kept as columns over vids, in BFS order, and one entry list
per cone type; no vertex has a record of its own.  Per vid: its vertex type,
parent, cone type and first child.  BFS appends each vertex's children one
after another, in parent order, so the children of u are the vids
first_child[u] up to first_child[u + 1], and a child's parent edge (type,
star band, step) is its parent's cone entry at its sibling index.  The vids
below a level range [a, b), one level down, are [first_child[a],
first_child[b]), so a subtree is one vid range per level: ancestry and the
two sides of an edge are read by lifting ranges.  The layer sizes are powers
of the cone types' transfer matrix, so the budget is checked before any
vertex is built.

Vertices with an infinite (backend) vertex group have infinite degree; their
stars are truncated to a shortlex band of coset parameters (the small band
feeds ordinary expansion, the top band marks "escaping" star edges used by
the boundary machinery) and flagged ``truncated``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
from typing import NamedTuple

from .errors import BudgetExceeded, NoEdges, NotInBall
from .fundgroup import FundamentalGroup, NormalForm
from .gog import bar

DEFAULT_TREE_BUDGET = 200_000


@dataclass(frozen=True)
class TreeBallConfig:
    star_radius: int = 2      # backend star parameters: generator length <= this
    star_small: int = 3       # how many shortlex-smallest parameters to keep
    star_fresh: int = 2       # how many shortlex-largest full-length parameters to keep
    budget: int = DEFAULT_TREE_BUDGET

    def __post_init__(self):
        if self.star_radius < 1 or self.star_small < 1 or self.star_fresh < 0:
            raise ValueError("need star_radius >= 1, star_small >= 1, star_fresh >= 0")
        if self.budget < 1:
            raise ValueError("budget must be positive")


class ConeEntry(NamedTuple):
    """A star parameter of a cone type that leads to a child: the child's
    parent edge."""

    ytype: int                 # oriented edge of Y pointing INTO the parent
    ve: NormalForm | None      # g, for a crossing against the orientation A
    step: NormalForm | None    # the child's rep is the parent's rep·step
    fresh: bool                # top-band backend star parameter


class TreeBall:
    """Radius-n combinatorial ball around the base vertex 1*G_{v0}, as columns
    over vids in BFS order (see the module docstring): ``vtype``, ``parent``
    (-1 at the root), ``cone`` (an index into ``cones``) and ``first_child``
    (n + 1 entries; n at depth ``radius`` and at the sentinel).  The columns
    are lists of ints: they build and read faster than ``array('i')``, which
    boxes every int it hands out."""

    def __init__(self, fg: FundamentalGroup, radius: int,
                 config: TreeBallConfig | None = None):
        if radius < 0:
            raise ValueError(f"tree ball radius must be >= 0, got {radius}")
        self.fg = fg
        self.radius = radius
        self.config = config or TreeBallConfig()
        self.truncated = [not G.is_finite for G in fg.gog.vertex_groups]   # per vertex type
        self._build()
        self._reps = {0: fg.identity()}
        self._edge_reps: dict[int, NormalForm] = {}

    # --- construction -------------------------------------------------------

    def _edge(self, child: int) -> int:
        """child, if it names an edge: the root and vids past the ball do not."""
        if not 0 < child < len(self.vtype):
            raise NotInBall(f"no edge into vertex {child} in the ball")
        return child

    def edge_coset_elements(self, child: int) -> list[NormalForm]:
        """The coset of the edge into vertex child."""
        pair, mu = self.edge_pair(child), self.edge_rep(child)
        return [self.fg.multiply(mu, h) for h in self.fg.edge_subgroup_elements(pair)]

    def _cones(self) -> dict[tuple[int, int | None], list[ConeEntry]]:
        """Per cone type (vtype, back): the entries of the star parameters g
        that lead to children, in sibling order: by y, then by g (the fresh
        band after the small one).  The child of u has rep u.rep·step, with
        step = g·t_{bar y} (g on a tree edge).  ve is g when the edge coset is
        represented by u.rep·g instead (a crossing against the orientation A),
        else None.  (vtype, None) is the whole star; (vtype, back) drops the
        parent."""
        fg = self.fg
        cones = {}
        for vtype, backend in enumerate(fg.gog.vertex_groups):
            star, parent_at = [], {}
            for y in fg.gog.graph.incident_into(vtype):
                emb = fg.gog.embedding(y)
                if backend.is_finite:
                    params = [(g, False) for g in emb.left_coset_reps()]
                else:
                    cfg = self.config
                    ball = backend.ball(cfg.star_radius, fg.ball_budget)
                    small = ball[:cfg.star_small]
                    full = [g for g in ball if backend.gen_length(g) == cfg.star_radius]
                    fresh = full[-cfg.star_fresh:] if cfg.star_fresh > 0 else []
                    # small is a prefix of the shortlex ball, so the fresh
                    # parameters it does not hold sort after it
                    params = [(g, False) for g in small]
                    params += [(g, True) for g in fresh if g not in small]
                crossing = None if fg.sd.in_tree(y) else fg.letter(bar(y))
                at_child = crossing is None or y in fg.sd.orientation
                for g, fresh in params:
                    if emb.contains(g):
                        parent_at[y] = len(star)
                    ve = fg.vertex_element(vtype, g)
                    step = ve if crossing is None else fg.multiply(ve, crossing)
                    star.append(ConeEntry(y, None if at_child else ve, step, fresh))
            cones[vtype, None] = star
            for back, i in parent_at.items():
                cones[vtype, back] = star[:i] + star[i + 1:]
        return cones

    def _build(self):
        """Number the cone types, count the layers from them and check the
        budget, then fill the columns a layer at a time: a vertex's children
        are its cone's child cone types, appended in parent order."""
        alpha = self.fg.gog.graph.alpha
        by_key = self._cones()
        ids = {key: c for c, key in enumerate(by_key)}
        self.cones: list[list[ConeEntry]] = list(by_key.values())
        self.cone_vtype = [vtype for vtype, _ in by_key]
        self.cone_kids = [[ids[alpha[e.ytype], bar(e.ytype)] for e in entries]
                          for entries in self.cones]
        self.root_cone = ids[self.fg.root, None]
        if any(total > self.config.budget for total in accumulate(self.layer_sizes())):
            raise BudgetExceeded(self.config.budget, "tree ball")
        kids = self.cone_kids
        cone, parent, first_child = [self.root_cone], [-1], []
        self._starts = [0, 1]   # the depth-k vids are _starts[k] up to _starts[k + 1]
        for _ in range(self.radius):
            lo, hi = self._starts[-2:]
            if lo == hi:    # an empty level: every deeper one is empty too
                break
            layer = cone[lo:hi]
            counts = [len(kids[c]) for c in layer]
            first_child.extend(islice(accumulate(counts, initial=hi), len(counts)))
            parent.extend(chain.from_iterable(map(repeat, range(lo, hi), counts)))
            cone.extend(chain.from_iterable(map(kids.__getitem__, layer)))
            self._starts.append(len(cone))
        n = len(cone)
        self._starts.extend(repeat(n, self.radius + 2 - len(self._starts)))
        first_child.extend(repeat(n, n + 1 - len(first_child)))
        self.cone, self.parent, self.first_child = cone, parent, first_child
        self.vtype = list(map(self.cone_vtype.__getitem__, cone))

    def layer_sizes(self) -> Iterator[int]:
        """The number of vertices at each depth up to the radius, in order,
        counted from the child cone types of each cone type: powers of the
        transfer matrix applied to the root's cone type."""
        count = {self.root_cone: 1}
        for k in range(self.radius + 1):
            if not count:
                yield from repeat(0, self.radius + 1 - k)
                return
            yield sum(count.values())
            nxt: dict[int, int] = {}
            for c, m in count.items():
                for child in self.cone_kids[c]:
                    nxt[child] = nxt.get(child, 0) + m
            count = nxt

    # --- columns read per vid ---------------------------------------------------

    @property
    def vertices(self) -> range:
        """The vids."""
        return range(len(self.vtype))

    def depth(self, vid: int) -> int:
        return bisect_right(self._starts, vid) - 1

    def children(self, vid: int) -> range:
        return range(self.first_child[vid], self.first_child[vid + 1])

    def parent_edge(self, child: int) -> ConeEntry:
        """The cone entry of the edge into vertex child: its parent's, at its
        sibling index."""
        p = self.parent[self._edge(child)]
        return self.cones[self.cone[p]][child - self.first_child[p]]

    def edge_pair(self, child: int) -> int:
        return self.parent_edge(child).ytype // 2

    def rep(self, vid: int) -> NormalForm:
        """BFS-least coset representative, parent rep·step, formed on first
        read.  A deep ball holds long unformed chains, so walk up to the
        nearest formed ancestor and multiply back down instead of recursing."""
        reps, chain = self._reps, []
        while vid not in reps:
            chain.append(vid)
            vid = self.parent[vid]
        rep = reps[vid]
        for w in reversed(chain):
            rep = reps[w] = self.fg.multiply(rep, self.parent_edge(w).step)
        return rep

    def label(self, vid: int) -> str:
        """The witness label ``name:rep`` of vertex vid; it forms the rep."""
        return f"{self.fg.gog.graph.vertex_names[self.vtype[vid]]}:{self.rep(vid).display()}"

    def edge_rep(self, child: int) -> NormalForm:
        """The parent edge's discovery representative mu (a coset member):
        child's rep, or the parent's rep·ve for a crossing against the
        orientation A, formed on first read."""
        ve = self.parent_edge(child).ve
        if ve is None:
            return self.rep(child)
        if child not in self._edge_reps:
            self._edge_reps[child] = self.fg.multiply(self.rep(self.parent[child]), ve)
        return self._edge_reps[child]

    # --- queries -----------------------------------------------------------------

    def level(self, k: int) -> range:
        """The depth-k vids, consecutive since vids are in BFS order."""
        n = len(self.vtype)
        return range(self._starts[k], self._starts[k + 1]) if k <= self.radius else range(n, n)

    def lift(self, bounds: Sequence[int], levels: int) -> list[int]:
        """Vid boundaries of one level, moved ``levels`` levels down: the vids
        below a level range [a, b), one level down, are [first_child[a],
        first_child[b]).  So consecutive ranges stay consecutive, and each
        becomes the range of its vids' descendants."""
        fc = self.first_child
        for _ in range(levels):
            bounds = [fc[b] for b in bounds]
        return list(bounds)

    def descendants(self, vid: int, depth: int) -> range:
        """vid's descendants at a depth, as one vid range; empty above vid."""
        k = depth - self.depth(vid)
        return range(*self.lift((vid, vid + 1), k)) if k >= 0 else range(0)

    def find_vertex(self, x: NormalForm, vtype: int) -> int | None:
        """Locate the coset x*G_vtype in the ball, or None."""
        for vid, t in enumerate(self.vtype):
            if t == vtype and self.fg.coset_membership(x, vtype, self.rep(vid)):
                return vid
        return None

    def find_edge(self, mu: NormalForm, pair: int) -> int | None:
        """The child vid of the first edge of the pair whose coset holds mu,
        or None; BFS order finds the cosets near the root first."""
        for child in range(1, len(self.vtype)):
            if self.edge_pair(child) == pair and mu in self.edge_coset_elements(child):
                return child
        return None

    def in_subtree(self, vid: int, ancestor: int) -> bool:
        """Whether ancestor lies on the path from the root to vid."""
        return vid in self.descendants(ancestor, self.depth(vid))

    def root_path(self, vid: int) -> list[int]:
        """The edges from the root down to vid, as child vids."""
        out = []
        while vid:
            out.append(vid)
            vid = self.parent[vid]
        out.reverse()
        return out

    def geodesic(self, u: int, w: int) -> list[int]:
        """The unique simple edge path between two ball vertices, as child vids."""
        if u >= len(self.vtype) or w >= len(self.vtype):
            raise NotInBall(f"vertex {max(u, w)} not in ball")
        parent = self.parent
        du, dw = self.depth(u), self.depth(w)
        up, down = [], []
        for _ in range(du - dw):
            up.append(u)
            u = parent[u]
        for _ in range(dw - du):
            down.append(w)
            w = parent[w]
        while u != w:
            up.append(u)
            down.append(w)
            u, w = parent[u], parent[w]
        return up + down[::-1]

    def split_by_edge(self, child: int) -> tuple[frozenset[int], frozenset[int]]:
        """Vertex sets of the two components of ball minus the open edge
        into vertex child; the first contains child (the alpha end): its
        descendants, one vid range per level."""
        lo, hi = self._edge(child), child + 1
        below = []
        while lo < hi:
            below.extend(range(lo, hi))
            lo, hi = self.lift((lo, hi), 1)
        side = frozenset(below)
        return side, frozenset(range(len(self.vtype))) - side

    def edge_tree_distance(self, child: int, vid: int) -> int:
        """Distance from the edge into vertex child to a vertex: 0 if incident."""
        if self.in_subtree(vid, self._edge(child)):
            return self.depth(vid) - self.depth(child)
        return len(self.geodesic(self.parent[child], vid))


@dataclass(frozen=True)
class TilingTree:
    """The subtree spanned by the identity edge cosets G_y, one per pair."""

    vertex_ids: tuple[int, ...]
    edge_ids: tuple[int, ...]     # child vids
    connected: bool


def tiling_tree(ball: TreeBall) -> TilingTree:
    fg = ball.fg
    g = fg.gog.graph
    if g.n_edges == 0:
        raise NoEdges("the underlying graph has no edges")
    edges = []
    vids: set[int] = set()
    for k in range(g.n_edges):
        c = ball.find_edge(fg.identity(), k)
        if c is None:
            raise NotInBall(f"identity edge coset of pair {k} outside the ball; "
                            f"increase the radius")
        edges.append(c)
        vids.update((ball.parent[c], c))
    # distinct edges of a tree span a forest with |V| - |E| components
    return TilingTree(tuple(sorted(vids)), tuple(edges), len(vids) == len(edges) + 1)

