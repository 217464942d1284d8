"""Finite portions of the Bass-Serre tree: coset vertices and edges, BFS
balls, geodesics, edge splits, the tiling tree, and the edge-to-element
function phi.

A tree vertex is the coset rep*G_v; a tree edge the coset mu*G_y (edge
subgroups are finite, so edge cosets are enumerated exactly).  Each non-root
vertex has one parent edge, so the ball keeps one record per vertex: an edge
is named by its child's vid, and the child holds the edge's type, star band
and coset representative.  Artifacts print the edge into c as edge c - 1.

The star of a vertex of type v is parametrized by pairs (y, g) with
omega(y) = v and g ranging over coset representatives of im(i_y) in G_v;
crossing the edge multiplies by the stable letter of bar(y) for non-tree
types.  The step g·t_{bar y} (g alone on a tree edge) is formed once per
vertex type, and the build forms no other product: a child of u records u
and its step, and its rep u.rep·step is formed on first read.  A crossing
against the orientation A also records g, and the edge coset's
representative u.rep·g is likewise formed on first read.

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


@dataclass(slots=True, eq=False)
class TreeVertex:
    """A coset vertex and, below the root, its parent edge."""

    vid: int
    vtype: int                 # vertex id of Y
    depth: int
    truncated: bool            # star truncated (infinite true degree)
    up: TreeVertex | None = field(repr=False)   # the parent, None at the root
    step: NormalForm | None = field(repr=False)  # rep = up.rep·step
    ytype: int = -1            # parent edge: oriented edge of Y pointing INTO the parent
    fresh: bool = False        # parent edge: top-band backend star parameter
    ve: NormalForm | None = field(default=None, repr=False)   # against A only
    children: list[int] = field(default_factory=list)   # vids in discovery order
    _rep: NormalForm | None = field(default=None, init=False, repr=False)
    _edge_rep: NormalForm | None = field(default=None, init=False, repr=False)

    @property
    def pair(self) -> int:
        return self.ytype // 2

    @property
    def rep(self) -> NormalForm:
        """BFS-least coset representative, up.rep·step, formed on first read.
        A deep ball holds long unformed chains, so walk up to the nearest
        formed ancestor and multiply back down instead of recursing."""
        if self._rep is None:
            chain, v = [], self
            while v._rep is None:
                chain.append(v)
                v = v.up
            for w in reversed(chain):
                w._rep = w.step.group.multiply(v._rep, w.step)
                v = w
        return self._rep

    @property
    def edge_rep(self) -> NormalForm:
        """The parent edge's discovery representative mu (a coset member):
        this vertex's rep, or up.rep·ve for a crossing against the
        orientation A, formed on first read."""
        if self.ve is None:
            return self.rep
        if self._edge_rep is None:
            self._edge_rep = self.ve.group.multiply(self.up.rep, self.ve)
        return self._edge_rep


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
        self._build()
        self._number()

    # --- construction -------------------------------------------------------

    def _edge(self, child: int) -> TreeVertex:
        """Vertex child, which holds the edge into it; the root holds none."""
        if not 0 < child < len(self.vertices):
            raise NotInBall(f"no edge into vertex {child} in the ball")
        return self.vertices[child]

    def edge_coset_elements(self, child: int) -> list[NormalForm]:
        """The coset of the edge into vertex child."""
        c = self._edge(child)
        return [self.fg.multiply(c.edge_rep, h) for h in self.fg.edge_subgroup_elements(c.pair)]

    def _cones(self) -> dict[tuple[int, int | None], list[tuple]]:
        """Per cone type (vtype, back): the (y, child_type, ve, step, fresh)
        tuples of the star parameters g that lead to children, in sibling
        order: by y, then by g (the fresh band after the small one).  The
        child of u has rep u.rep·step, with step = g·t_{bar y}
        (g on a tree edge).  ve is g when the edge coset is represented by
        u.rep·g instead (a crossing against the orientation A), else None.
        (vtype, None) is the whole star; (vtype, back) drops the parent."""
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
                    star.append((y, fg.gog.graph.alpha[y], None if at_child else ve,
                                 step, fresh))
            cones[vtype, None] = star
            for back, i in parent_at.items():
                cones[vtype, back] = star[:i] + star[i + 1:]
        return cones

    def _build(self):
        fg = self.fg
        truncated = [not G.is_finite for G in fg.gog.vertex_groups]
        cones = self._cones()
        root = TreeVertex(vid=0, vtype=fg.root, depth=0, truncated=truncated[fg.root],
                          up=None, step=None)
        root._rep = fg.identity()
        self.vertices.append(root)
        self._starts = [0, 1]   # the depth-k vids are _starts[k] up to _starts[k + 1]
        frontier = [root]
        for depth in range(self.radius):
            nxt: list[TreeVertex] = []
            for u in frontier:
                back = None if u.up is None else bar(u.ytype)
                for y, child_type, ve, step, fresh in cones[u.vtype, back]:
                    cvid = len(self.vertices)
                    # positional, in field order: keywords cost about 0.6 µs
                    # a record, a tenth of an amalgam-check at depth 7
                    child = TreeVertex(cvid, child_type, depth + 1, truncated[child_type],
                                       u, step, y, fresh, ve)
                    self.vertices.append(child)
                    u.children.append(cvid)
                    nxt.append(child)
                    if len(self.vertices) > self.config.budget:
                        raise BudgetExceeded(self.config.budget, "tree ball")
            frontier = nxt
            self._starts.append(len(self.vertices))

    def _number(self):
        """Parent vids, subtree sizes and the pre-order numbering.  Vids are
        in BFS order, so every parent precedes its children."""
        n = len(self.vertices)
        self.parent: list[int] = [-1] + [v.up.vid for v in self.vertices[1:]]
        size = [1] * n
        for vid in range(n - 1, 0, -1):
            size[self.parent[vid]] += size[vid]
        pre = [0] * n
        for v in self.vertices:
            nxt = pre[v.vid] + 1
            for child in v.children:
                pre[child] = nxt
                nxt += size[child]
        order = [0] * n
        for vid, p in enumerate(pre):
            order[p] = vid
        self._size, self._pre, self._order = size, pre, order

    # --- queries -----------------------------------------------------------------

    def level(self, k: int) -> range:
        """The depth-k vids, consecutive since vids are in BFS order."""
        n = len(self.vertices)
        return range(self._starts[k], self._starts[k + 1]) if k <= self.radius else range(n, n)

    def degree(self, vid: int) -> int:
        return len(self.vertices[vid].children) + (vid > 0)

    def full_star_degree(self, vtype: int) -> int | None:
        """Sum over incident types of [G_v : i_y(G_y)]; None for an infinite
        vertex group, whose star is infinite."""
        gog = self.fg.gog
        if not gog.vertex_groups[vtype].is_finite:
            return None
        return sum(gog.embedding(y).index_in_target() for y in gog.graph.incident_into(vtype))

    def find_vertex(self, x: NormalForm, vtype: int) -> int | None:
        """Locate the coset x*G_vtype in the ball, or None."""
        for v in self.vertices:
            if v.vtype == vtype and self.fg.coset_membership(x, vtype, v.rep):
                return v.vid
        return None

    def find_edge(self, mu: NormalForm, pair: int) -> int | None:
        """The child vid of the first edge of the pair whose coset holds mu,
        or None; BFS order finds the cosets near the root first."""
        for c in self.vertices[1:]:
            if c.pair == pair and mu in self.edge_coset_elements(c.vid):
                return c.vid
        return None

    def subtree_interval(self, vid: int) -> tuple[int, int]:
        """The pre-order numbers [lo, hi) of vid's subtree; lo is vid's own."""
        return self._pre[vid], self._pre[vid] + self._size[vid]

    def in_subtree(self, vid: int, ancestor: int) -> bool:
        """Whether ancestor lies on the path from the root to vid."""
        lo, hi = self.subtree_interval(ancestor)
        return lo <= self._pre[vid] < hi

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
        if u >= len(self.vertices) or w >= len(self.vertices):
            raise NotInBall(f"vertex {max(u, w)} not in ball")
        vs, parent = self.vertices, self.parent
        up, down = [], []
        while vs[u].depth > vs[w].depth:
            up.append(u)
            u = parent[u]
        while vs[w].depth > vs[u].depth:
            down.append(w)
            w = parent[w]
        while u != w:
            up.append(u)
            down.append(w)
            u, w = parent[u], parent[w]
        return up + down[::-1]

    def split_by_edge(self, child: int) -> tuple[frozenset[int], frozenset[int]]:
        """Vertex sets of the two components of ball minus the open edge
        into vertex child; the first contains child (the alpha end)."""
        lo, hi = self.subtree_interval(self._edge(child).vid)
        return (frozenset(self._order[lo:hi]),
                frozenset(self._order[:lo] + self._order[hi:]))

    def edge_tree_distance(self, child: int, vid: int) -> int:
        """Distance from the edge into vertex child to a vertex: 0 if incident."""
        if self.in_subtree(vid, self._edge(child).vid):
            return self.vertices[vid].depth - self.vertices[child].depth
        return len(self.geodesic(self.parent[child], vid))

    # --- phi ---------------------------------------------------------------------

    def phi(self, child: int) -> NormalForm:
        """Canonical member of the edge coset: its sort-key least element."""
        return min(self.edge_coset_elements(child), key=NormalForm.sort_key)


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

