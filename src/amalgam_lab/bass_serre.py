"""Finite portions of the Bass-Serre tree: coset vertices and edges, BFS
balls, geodesics, edge splits, the tiling tree, and the edge-to-element
function phi.

A tree vertex is the coset rep*G_v; a tree edge the coset mu*G_y (edge
subgroups are finite, so edge cosets are enumerated exactly).  The star of a
vertex of type v is parametrized by pairs (y, g) with omega(y) = v and g
ranging over coset representatives of im(i_y) in G_v; crossing the edge
multiplies by the stable letter of bar(y) for non-tree types.  The step
g·t_{bar y} (g alone on a tree edge) is formed once per vertex type, so a
child of u costs one product u.rep·step; a crossing against the orientation
A also forms u.rep·g, the edge coset's representative.

Cosets are keyed exactly.  Canonical forms are unique, so an element is its
own key.  A finite coset is keyed by its least member under
``NormalForm.sort_key``, which is injective on canonical forms: two cosets
share the key iff they share that member, iff they are equal.  With a trivial
edge group the edge coset mu*G_y is {mu}, so its key is mu and costs no
product.  A backend (infinite) vertex coset other than the root is keyed by
its parent edge, which is unique in a tree.

After the build the vertices are numbered in pre-order, children in
discovery order, with subtree sizes.  A subtree is then an interval of that
order: ancestry is one comparison, and the two sides of an edge are slices.

Vertices with an infinite (backend) vertex group have infinite degree; their
stars are truncated to a shortlex band of coset parameters (the small band
feeds ordinary expansion, the top band marks "escaping" star edges used by
the boundary machinery) and flagged ``truncated``.
"""

from __future__ import annotations

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
        if radius < 0:
            raise ValueError(f"tree ball radius must be >= 0, got {radius}")
        self.fg = fg
        self.radius = radius
        self.config = config or TreeBallConfig()
        self.vertices: list[TreeVertex] = []
        self.edges: list[TreeEdge] = []
        self._vkey_to_vid: dict[object, int] = {}
        self._ekey_to_eid: dict[object, int] = {}
        # finiteness is fixed per vertex type of Y
        self._finite = tuple(G.is_finite for G in fg.gog.vertex_groups)
        self._build()
        self._number()

    # --- construction -------------------------------------------------------

    def _vertex_coset_key(self, rep: NormalForm, vtype: int, parent_edge_key):
        if self._finite[vtype]:
            elems = (self.fg.multiply(rep, h)
                     for h in self.fg.vertex_subgroup_elements(vtype))
            return ("v", vtype, min(elems, key=NormalForm.sort_key))
        # backend cosets are identified through their (unique) parent edge
        return ("bv", vtype, parent_edge_key)

    def edge_coset_elements(self, eid: int) -> list[NormalForm]:
        e = self.edges[eid]
        subgroup = self.fg.edge_subgroup_elements(e.pair)
        return [self.fg.multiply(e.rep, h) for h in subgroup]

    def _edge_coset_key(self, mu: NormalForm, pair: int):
        subgroup = self.fg.edge_subgroup_elements(pair)
        if len(subgroup) == 1:
            return ("e", pair, mu)
        return ("e", pair, min((self.fg.multiply(mu, h) for h in subgroup),
                               key=NormalForm.sort_key))

    def _star(self, vtype: int):
        """Per incident oriented type y: the child type and the ordered
        (ve, step, param_sort, fresh) tuples of its star parameters g.  The
        child of u is u.rep·step, with step = g·t_{bar y} (g on a tree edge).
        ve is g when the edge coset is represented by u.rep·g instead (a
        crossing against the orientation A), else None."""
        fg = self.fg
        backend = fg.gog.vertex_groups[vtype]
        out = []
        for y in fg.gog.graph.incident_into(vtype):
            emb = fg.gog.embedding(y)
            if self._finite[vtype]:
                params = [(g, (g,), False) for g in emb.left_coset_reps()]
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
            crossing = None if fg.sd.in_tree(y) else fg.letter(bar(y))
            at_child = crossing is None or y in fg.sd.orientation
            steps = []
            for g, psort, fresh in params:
                ve = fg.vertex_element(vtype, g)
                step = ve if crossing is None else fg.multiply(ve, crossing)
                steps.append((None if at_child else ve, step, (y,) + psort, fresh))
            out.append((y, fg.gog.graph.alpha[y], steps))
        return out

    def _build(self):
        fg = self.fg
        g = fg.gog.graph
        root_rep = fg.identity()
        root_key = self._vertex_coset_key(root_rep, fg.root, ("root",))
        root = TreeVertex(vid=0, vtype=fg.root, rep=root_rep, key=root_key,
                          depth=0, parent_edge=-1,
                          truncated=not self._finite[fg.root])
        self.vertices.append(root)
        self._vkey_to_vid[root_key] = 0
        frontier = [0]
        stars = [self._star(v) for v in range(g.n_vertices)]

        for depth in range(self.radius):
            nxt: list[int] = []
            for vid in frontier:
                u = self.vertices[vid]
                u.expanded = True
                parent_key = None
                if u.parent_edge >= 0:
                    parent_key = self.edges[u.parent_edge].key
                for y, child_type, steps in stars[u.vtype]:
                    for ve, step, psort, fresh in steps:
                        nu = fg.multiply(u.rep, step)
                        mu = nu if ve is None else fg.multiply(u.rep, ve)
                        ekey = self._edge_coset_key(mu, y // 2)
                        if ekey == parent_key:
                            continue
                        if ekey in self._ekey_to_eid:
                            # cannot happen in a tree; guard against misuse
                            raise AssertionError("duplicate tree edge discovered")
                        eid = len(self.edges)
                        vkey = self._vertex_coset_key(nu, child_type, ekey)
                        if vkey in self._vkey_to_vid:
                            raise AssertionError("duplicate tree vertex discovered")
                        cvid = len(self.vertices)
                        edge = TreeEdge(eid=eid, ytype=y, rep=mu, key=ekey,
                                        parent=vid, child=cvid,
                                        param_sort=psort, fresh=fresh)
                        self.edges.append(edge)
                        self._ekey_to_eid[ekey] = eid
                        child = TreeVertex(
                            vid=cvid, vtype=child_type, rep=nu, key=vkey,
                            depth=depth + 1, parent_edge=eid,
                            truncated=not self._finite[child_type],
                        )
                        self.vertices.append(child)
                        self._vkey_to_vid[vkey] = cvid
                        u.children.append(eid)
                        nxt.append(cvid)
                        if len(self.vertices) > self.config.budget:
                            raise BudgetExceeded(self.config.budget, "tree ball")
            frontier = nxt

    def _number(self):
        """Parent vids, subtree sizes and the pre-order numbering.  Vids are
        in BFS order, so every parent precedes its children."""
        n = len(self.vertices)
        self.parent: list[int] = [-1] * n
        for e in self.edges:
            self.parent[e.child] = e.parent
        size = [1] * n
        for vid in range(n - 1, 0, -1):
            size[self.parent[vid]] += size[vid]
        pre = [0] * n
        for v in self.vertices:
            nxt = pre[v.vid] + 1
            for eid in v.children:
                child = self.edges[eid].child
                pre[child] = nxt
                nxt += size[child]
        self._size, self._pre = size, pre
        self._order = sorted(range(n), key=pre.__getitem__)

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
        if self._finite[vtype]:
            key = self._vertex_coset_key(x, vtype, None)
            return self._vkey_to_vid.get(key)
        for v in self.vertices:
            if v.vtype == vtype and fg.coset_membership(x, vtype, v.rep):
                return v.vid
        return None

    def find_edge(self, mu: NormalForm, pair: int) -> int | None:
        return self._ekey_to_eid.get(self._edge_coset_key(mu, pair))

    def subtree_interval(self, vid: int) -> tuple[int, int]:
        """The pre-order numbers [lo, hi) of vid's subtree; lo is vid's own."""
        return self._pre[vid], self._pre[vid] + self._size[vid]

    def in_subtree(self, vid: int, ancestor: int) -> bool:
        """Whether ancestor lies on the path from the root to vid."""
        lo, hi = self.subtree_interval(ancestor)
        return lo <= self._pre[vid] < hi

    def root_path(self, vid: int) -> list[int]:
        """eids from the root down to vid."""
        out = []
        while vid:
            out.append(self.vertices[vid].parent_edge)
            vid = self.parent[vid]
        out.reverse()
        return out

    def geodesic(self, u: int, w: int) -> list[int]:
        """The unique simple edge path between two ball vertices (eids)."""
        if u >= len(self.vertices) or w >= len(self.vertices):
            raise NotInBall(f"vertex {max(u, w)} not in ball")
        vs, parent = self.vertices, self.parent
        up, down = [], []
        while vs[u].depth > vs[w].depth:
            up.append(vs[u].parent_edge)
            u = parent[u]
        while vs[w].depth > vs[u].depth:
            down.append(vs[w].parent_edge)
            w = parent[w]
        while u != w:
            up.append(vs[u].parent_edge)
            down.append(vs[w].parent_edge)
            u, w = parent[u], parent[w]
        return up + down[::-1]

    def split_by_edge(self, eid: int) -> tuple[frozenset[int], frozenset[int]]:
        """Vertex sets of the two components of ball minus the open edge;
        the first contains the edge's alpha end (the child side)."""
        if eid >= len(self.edges):
            raise NotInBall(f"edge {eid} not in ball")
        lo, hi = self.subtree_interval(self.edges[eid].child)
        return (frozenset(self._order[lo:hi]),
                frozenset(self._order[:lo] + self._order[hi:]))

    def edge_tree_distance(self, eid: int, vid: int) -> int:
        """Distance from an edge to a vertex: 0 if incident."""
        e = self.edges[eid]
        if self.in_subtree(vid, e.child):
            return self.vertices[vid].depth - self.vertices[e.child].depth
        return len(self.geodesic(e.parent, vid))

    # --- phi ---------------------------------------------------------------------

    def phi(self, eid: int) -> NormalForm:
        """Canonical member of the edge coset, the sort-key least one its key holds."""
        return self.edges[eid].key[2]


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
    # distinct edges of a tree span a forest with |V| - |E| components
    return TilingTree(tuple(sorted(vids)), tuple(eids), len(vids) == len(eids) + 1)

