"""Finite portions of the Bass-Serre tree: coset vertices and edges, BFS
balls, geodesics, edge splits, the tiling tree, and the edge-to-element
function phi.

A tree vertex is the coset rep*G_v; a tree edge the coset mu*G_y (edge
subgroups are finite, so edge cosets are enumerated exactly).  The star of a
vertex of type v is parametrized by pairs (y, g) with omega(y) = v and g
ranging over coset representatives of im(i_y) in G_v; crossing the edge
multiplies by the stable letter of bar(y) for non-tree types.

Vertices with an infinite (backend) vertex group have infinite degree; their
stars are truncated to a shortlex band of coset parameters (the small band
feeds ordinary expansion, the top band marks "escaping" star edges used by
the boundary machinery) and flagged ``truncated``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

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


@dataclass
class TreeVertex:
    vid: int
    vtype: int                 # vertex id of Y
    rep: NormalForm            # BFS-least coset representative
    key: object
    depth: int
    parent_edge: int           # eid, -1 for the root
    truncated: bool            # star truncated (infinite true degree)
    expanded: bool = False
    children: list[int] = field(default_factory=list)   # eids in discovery order


@dataclass
class TreeEdge:
    eid: int
    ytype: int                 # oriented edge of Y, pointing INTO the parent
    rep: NormalForm            # discovery representative mu (a coset member)
    key: object
    parent: int                # vid on the omega side
    child: int                 # vid on the alpha side
    param_sort: tuple          # deterministic sibling order
    fresh: bool                # top-band backend star parameter

    @property
    def pair(self) -> int:
        return self.ytype // 2


class TreeBall:
    """Radius-n combinatorial ball around the base vertex 1*G_{v0}."""

    def __init__(self, fg: FundamentalGroup, radius: int,
                 config: TreeBallConfig | None = None):
        self.fg = fg
        self.radius = radius
        self.config = config or TreeBallConfig()
        self.vertices: list[TreeVertex] = []
        self.edges: list[TreeEdge] = []
        self._vkey_to_vid: dict[object, int] = {}
        self._ekey_to_eid: dict[object, int] = {}
        self._build()

    # --- construction -------------------------------------------------------

    def _vertex_coset_key(self, rep: NormalForm, vtype: int, parent_edge_key):
        backend = self.fg.vertex_backend(vtype)
        if backend.is_finite:
            elems = (self.fg.multiply(rep, h)
                     for h in self.fg.vertex_subgroup_elements(vtype))
            return ("v", vtype, min(e.sort_key() for e in elems))
        # backend cosets are identified through their (unique) parent edge
        return ("bv", vtype, parent_edge_key)

    def edge_coset_elements(self, eid: int) -> list[NormalForm]:
        e = self.edges[eid]
        subgroup = self.fg.edge_subgroup_elements(e.pair)
        return [self.fg.multiply(e.rep, h) for h in subgroup]

    def _edge_coset_key(self, mu: NormalForm, pair: int):
        subgroup = self.fg.edge_subgroup_elements(pair)
        return ("e", pair, min(self.fg.multiply(mu, h).sort_key() for h in subgroup))

    def _star_params(self, vtype: int):
        """Per incident oriented type y: ordered (g, param_sort, fresh) tuples."""
        fg = self.fg
        backend = fg.vertex_backend(vtype)
        out = []
        for y in fg.gog.graph.incident_into(vtype):
            emb = fg.gog.embedding(y)
            if backend.is_finite:
                params = [(g, (g,), False) for g in emb.left_coset_reps()]
                truncated = False
            else:
                cfg = self.config
                ball = backend.ball(cfg.star_radius, fg.ball_budget)
                small = ball[:cfg.star_small]
                full = [g for g in ball if backend.gen_length(g) == cfg.star_radius]
                fresh = full[-cfg.star_fresh:] if cfg.star_fresh > 0 else []
                params = [(g, tuple(backend.sort_key(g)), False) for g in small]
                chosen = {g for g, _, _ in params}
                params += [(g, tuple(backend.sort_key(g)), True)
                           for g in fresh if g not in chosen]
                truncated = True
            out.append((y, params, truncated))
        return out

    def _build(self):
        fg = self.fg
        g = fg.gog.graph
        root_rep = fg.identity()
        root_key = self._vertex_coset_key(root_rep, fg.root, ("root",))
        root = TreeVertex(vid=0, vtype=fg.root, rep=root_rep, key=root_key,
                          depth=0, parent_edge=-1,
                          truncated=not fg.root_group.is_finite)
        self.vertices.append(root)
        self._vkey_to_vid[root_key] = 0
        frontier = [0]
        star_cache = {v: self._star_params(v) for v in range(g.n_vertices)}

        for depth in range(self.radius):
            nxt: list[int] = []
            for vid in frontier:
                u = self.vertices[vid]
                u.expanded = True
                parent_key = None
                if u.parent_edge >= 0:
                    parent_key = self.edges[u.parent_edge].key
                for y, params, _trunc in star_cache[u.vtype]:
                    crossing = None
                    if not fg.sd.in_tree(y):
                        crossing = fg.letter(bar(y))
                    for g_elem, psort, fresh in params:
                        base = fg.multiply(u.rep, fg.vertex_element(u.vtype, g_elem))
                        nu = base if crossing is None else fg.multiply(base, crossing)
                        if crossing is not None and y in fg.sd.orientation:
                            mu = nu
                        else:
                            mu = base
                        ekey = self._edge_coset_key(mu, y // 2)
                        if ekey == parent_key:
                            continue
                        if ekey in self._ekey_to_eid:
                            # cannot happen in a tree; guard against misuse
                            raise AssertionError("duplicate tree edge discovered")
                        eid = len(self.edges)
                        child_type = g.alpha[y]
                        vkey = self._vertex_coset_key(nu, child_type, ekey)
                        if vkey in self._vkey_to_vid:
                            raise AssertionError("duplicate tree vertex discovered")
                        cvid = len(self.vertices)
                        edge = TreeEdge(eid=eid, ytype=y, rep=mu, key=ekey,
                                        parent=vid, child=cvid,
                                        param_sort=(y,) + tuple(psort), fresh=fresh)
                        self.edges.append(edge)
                        self._ekey_to_eid[ekey] = eid
                        child = TreeVertex(
                            vid=cvid, vtype=child_type, rep=nu, key=vkey,
                            depth=depth + 1, parent_edge=eid,
                            truncated=not fg.vertex_backend(child_type).is_finite,
                        )
                        self.vertices.append(child)
                        self._vkey_to_vid[vkey] = cvid
                        u.children.append(eid)
                        nxt.append(cvid)
                        if len(self.vertices) > self.config.budget:
                            raise BudgetExceeded(self.config.budget, "tree ball")
            frontier = nxt

    # --- queries -----------------------------------------------------------------

    def degree(self, vid: int) -> int:
        v = self.vertices[vid]
        return len(v.children) + (1 if v.parent_edge >= 0 else 0)

    def full_star_degree(self, vtype: int) -> int:
        """Sum over incident types of [G_v : i_y(G_y)] (finite types only)."""
        fg = self.fg
        total = 0
        for y in fg.gog.graph.incident_into(vtype):
            total += fg.gog.embedding(y).index_in_target()
        return total

    def find_vertex(self, x: NormalForm, vtype: int) -> int | None:
        """Locate the coset x*G_vtype in the ball, or None."""
        fg = self.fg
        backend = fg.vertex_backend(vtype)
        if backend.is_finite:
            key = self._vertex_coset_key(x, vtype, None)
            return self._vkey_to_vid.get(key)
        for v in self.vertices:
            if v.vtype == vtype and fg.coset_membership(x, vtype, v.rep):
                return v.vid
        return None

    def find_edge(self, mu: NormalForm, pair: int) -> int | None:
        return self._ekey_to_eid.get(self._edge_coset_key(mu, pair))

    def root_path(self, vid: int) -> list[int]:
        """eids from the root down to vid."""
        out = []
        v = self.vertices[vid]
        while v.parent_edge >= 0:
            out.append(v.parent_edge)
            v = self.vertices[self.edges[v.parent_edge].parent]
        out.reverse()
        return out

    def geodesic(self, u: int, w: int) -> list[int]:
        """The unique simple edge path between two ball vertices (eids)."""
        if u >= len(self.vertices) or w >= len(self.vertices):
            raise NotInBall(f"vertex {max(u, w)} not in ball")
        pu, pw = self.root_path(u), self.root_path(w)
        i = 0
        while i < len(pu) and i < len(pw) and pu[i] == pw[i]:
            i += 1
        return pu[i:][::-1] + pw[i:]

    def tree_distance(self, u: int, w: int) -> int:
        return len(self.geodesic(u, w))

    def split_by_edge(self, eid: int) -> tuple[frozenset[int], frozenset[int]]:
        """Vertex sets of the two components of ball minus the open edge;
        the first contains the edge's alpha end (the child side)."""
        if eid >= len(self.edges):
            raise NotInBall(f"edge {eid} not in ball")
        e = self.edges[eid]
        side0 = set()
        stack = [e.child]
        while stack:
            vid = stack.pop()
            side0.add(vid)
            v = self.vertices[vid]
            for ce in v.children:
                stack.append(self.edges[ce].child)
        side1 = frozenset(range(len(self.vertices))) - side0
        return frozenset(side0), side1

    def edge_tree_distance(self, eid: int, vid: int) -> int:
        """Distance from an edge to a vertex: 0 if incident."""
        e = self.edges[eid]
        return min(self.tree_distance(e.parent, vid), self.tree_distance(e.child, vid))

    # --- phi ---------------------------------------------------------------------

    def phi(self, eid: int) -> NormalForm:
        """Canonical member of the edge coset (sort-key least); phi(e) in e."""
        return min(self.edge_coset_elements(eid), key=lambda n: n.sort_key())

    def phi_random(self, eid: int, rng: random.Random) -> NormalForm:
        elems = self.edge_coset_elements(eid)
        return elems[rng.randrange(len(elems))]


def tree_ball(fg: FundamentalGroup, radius: int,
              config: TreeBallConfig | None = None) -> TreeBall:
    return TreeBall(fg, radius, config)


@dataclass(frozen=True)
class TilingTree:
    """The subtree spanned by the identity edge cosets G_y, one per pair."""

    vertex_ids: tuple[int, ...]
    edge_ids: tuple[int, ...]
    connected: bool


def tiling_tree(ball: TreeBall) -> TilingTree:
    fg = ball.fg
    g = fg.gog.graph
    if g.n_edges == 0:
        raise NoEdges("the underlying graph has no edges")
    eids = []
    vids: set[int] = set()
    for k in range(g.n_edges):
        eid = ball.find_edge(fg.identity(), k)
        if eid is None:
            raise NotInBall(f"identity edge coset of pair {k} outside the ball; "
                            f"increase the radius")
        eids.append(eid)
        vids.add(ball.edges[eid].parent)
        vids.add(ball.edges[eid].child)
    # connectivity within the selected subgraph
    adj: dict[int, set[int]] = {v: set() for v in vids}
    for eid in eids:
        e = ball.edges[eid]
        adj[e.parent].add(e.child)
        adj[e.child].add(e.parent)
    seen = set()
    stack = [next(iter(vids))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj[v] - seen)
    return TilingTree(tuple(sorted(vids)), tuple(eids), seen == vids)


def translate_vertex(ball: TreeBall, gamma: NormalForm, vid: int) -> int | None:
    """Image of a ball vertex under left translation, if still in the ball."""
    v = ball.vertices[vid]
    return ball.find_vertex(ball.fg.multiply(gamma, v.rep), v.vtype)


def translate_edge(ball: TreeBall, gamma: NormalForm, eid: int) -> int | None:
    e = ball.edges[eid]
    return ball.find_edge(ball.fg.multiply(gamma, e.rep), e.pair)


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
