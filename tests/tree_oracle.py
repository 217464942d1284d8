"""The object-per-vertex tree ball, numbered in pre-order: the oracle of the
column-stored ``TreeBall``.

No production path uses it.  Every vertex is a record holding its parent,
its child list and its parent edge, built by a plain BFS over the cone
types; after the build the vertices are numbered in pre-order, children in
discovery order, with subtree sizes.  A subtree is then an interval of that
order, so ancestry, edge splits and the branches below a vertex are read off
intervals, by an argument that shares nothing with the column lifts.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from amalgam_lab.bass_serre import TreeBallConfig
from amalgam_lab.errors import BudgetExceeded, NotInBall
from amalgam_lab.fundgroup import FundamentalGroup, NormalForm
from amalgam_lab.gog import bar


@dataclass(slots=True, eq=False)
class OracleVertex:
    """A coset vertex and, below the root, its parent edge."""

    vid: int
    vtype: int
    depth: int
    truncated: bool
    up: OracleVertex | None = field(repr=False)
    step: NormalForm | None = field(repr=False)      # rep = up.rep·step
    ytype: int = -1
    fresh: bool = False
    ve: NormalForm | None = field(default=None, repr=False)   # against A only
    children: list[int] = field(default_factory=list)
    _rep: NormalForm | None = field(default=None, init=False, repr=False)
    _edge_rep: NormalForm | None = field(default=None, init=False, repr=False)

    @property
    def pair(self) -> int:
        return self.ytype // 2

    @property
    def rep(self) -> NormalForm:
        """up.rep·step, formed on first read from the nearest formed ancestor."""
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
        if self.ve is None:
            return self.rep
        if self._edge_rep is None:
            self._edge_rep = self.ve.group.multiply(self.up.rep, self.ve)
        return self._edge_rep


class OracleTreeBall:
    """Radius-n ball around the base vertex, one record per vertex."""

    def __init__(self, fg: FundamentalGroup, radius: int,
                 config: TreeBallConfig | None = None):
        self.fg = fg
        self.radius = radius
        self.config = config or TreeBallConfig()
        self.vertices: list[OracleVertex] = []
        self._leaf_pre: dict[int, list[int]] = {}   # per depth, as BoundaryApprox kept it
        self._build()
        self._number()

    def _cones(self) -> dict[tuple[int, int | None], list[tuple]]:
        """Per cone type (vtype, back): (y, child_type, ve, step, fresh) per
        star parameter that leads to a child, in sibling order."""
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
        root = OracleVertex(0, fg.root, 0, truncated[fg.root], None, None)
        root._rep = fg.identity()
        self.vertices.append(root)
        self._starts = [0, 1]
        frontier = [root]
        for depth in range(self.radius):
            nxt: list[OracleVertex] = []
            for u in frontier:
                back = None if u.up is None else bar(u.ytype)
                for y, child_type, ve, step, fresh in cones[u.vtype, back]:
                    cvid = len(self.vertices)
                    child = OracleVertex(cvid, child_type, depth + 1, truncated[child_type],
                                         u, step, y, fresh, ve)
                    self.vertices.append(child)
                    u.children.append(cvid)
                    nxt.append(child)
                    if len(self.vertices) > self.config.budget:
                        raise BudgetExceeded(self.config.budget, "tree ball")
            frontier = nxt
            self._starts.append(len(self.vertices))

    def _number(self):
        """Parent vids, subtree sizes and the pre-order numbering."""
        n = len(self.vertices)
        self.parent = [-1] + [v.up.vid for v in self.vertices[1:]]
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

    def level(self, k: int) -> range:
        n = len(self.vertices)
        return range(self._starts[k], self._starts[k + 1]) if k <= self.radius else range(n, n)

    def subtree_interval(self, vid: int) -> tuple[int, int]:
        return self._pre[vid], self._pre[vid] + self._size[vid]

    def in_subtree(self, vid: int, ancestor: int) -> bool:
        lo, hi = self.subtree_interval(ancestor)
        return lo <= self._pre[vid] < hi

    def geodesic(self, u: int, w: int) -> list[int]:
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
        if not 0 < child < len(self.vertices):
            raise NotInBall(f"no edge into vertex {child} in the ball")
        lo, hi = self.subtree_interval(child)
        return (frozenset(self._order[lo:hi]),
                frozenset(self._order[:lo] + self._order[hi:]))

    def edge_tree_distance(self, child: int, vid: int) -> int:
        if self.in_subtree(vid, child):
            return self.vertices[vid].depth - self.vertices[child].depth
        return len(self.geodesic(self.parent[child], vid))

    def branches_under(self, vid: int, depth: int) -> range:
        """The indices of the depth-``depth`` vertices below vid: on one level
        vid order and pre-order agree, so they are those whose pre-order
        numbers fall in vid's subtree interval, found by bisection."""
        if depth not in self._leaf_pre:
            self._leaf_pre[depth] = [self._pre[leaf] for leaf in self.level(depth)]
        leaf_pre = self._leaf_pre[depth]
        lo, hi = self.subtree_interval(vid)
        return range(bisect_left(leaf_pre, lo), bisect_left(leaf_pre, hi))
