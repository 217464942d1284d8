"""Depth-d approximations of the Bass-Serre tree boundary, limit-set proxies,
branch/vertex direction classification, and the dense-amalgam checker.

The boundary approximation at depth d is the set of immersed length-d edge
paths from the root; in a tree these are exactly the geodesics to depth-d
vertices.  The visual metric is 2^(-split) with split the common prefix
length, an ultrametric.

Limit sets of infinite vertex-group cosets have no faithful image among tree
branches (their orbits stay tree-close to the fixed coset vertex), so the
toolkit uses a declared finite-depth proxy: for a coset vertex C with a
truncated infinite star, the member consists of one witness branch per
"escaping" star edge (top shortlex band of the budgeted parameters), each
continued by the canonical tame descent (smallest non-escaping parameter at
every later vertex).  Escaping exits model orbit sequences leaving through
ever-fresh star edges, which is how vertex points arise as limits; the tame
continuation never exits freshly again, so distinct cosets own disjoint
packets.  Packet diameters are 2^(-depth(C)), which yields the nullness
scaling checked by (a2).
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, islice

from .bass_serre import TreeBall, TreeBallConfig
from .errors import DepthTooSmall
from .fundgroup import FundamentalGroup, NormalForm
from .jsonio import artifact


class BoundaryApprox:
    """All depth-d branches with their common prefix lengths (the visual
    ultrametric is 2^(-split)) and clopen basis, as a view of the tree ball:
    branch i is the depth-d vertex ``leaves[i]``.  The branches through a
    vertex are its depth-d descendants, one vid range (see
    ``TreeBall.lift``), so they are one range of branch indices.  A deeper
    tree is fine.
    """

    def __init__(self, tree: TreeBall, depth: int):
        self.tree = tree
        self.depth = depth
        self.leaves = tree.level(depth)

    def __len__(self) -> int:
        return len(self.leaves)

    def _under(self, vid: int) -> range:
        """Indices of the branches through vertex vid."""
        below, start = self.tree.descendants(vid, self.depth), self.leaves.start
        return range(below.start - start, below.stop - start)

    def ancestor(self, i: int, k: int) -> int:
        """The depth-k vertex on branch i."""
        vid = self.leaves[i]
        for _ in range(self.depth - k):
            vid = self.tree.parent[vid]
        return vid

    def split(self, i: int, j: int) -> int:
        """Common prefix length of two branches: the depth of their last
        common vertex."""
        parent = self.tree.parent
        u, w = self.leaves[i], self.leaves[j]
        k = self.depth
        while u != w:
            u, w = parent[u], parent[w]
            k -= 1
        return k

    def basis_members(self, child: int) -> frozenset[int]:
        """U_e: indices of branches passing through the tree edge e into
        vertex child; empty for the root, which has no parent edge."""
        return frozenset(self._under(child)) if child > 0 else frozenset()

    def groups_by_prefix(self, k: int) -> dict[int, range]:
        """The branches grouped by their depth-k ancestor vertex, in vid
        order, each group a range of branch indices; a vertex with no branch
        below it is left out."""
        if k > self.depth:
            return {}
        level, start = self.tree.level(k), self.leaves.start
        bounds = self.tree.lift(range(level.start, level.stop + 1), self.depth - k)
        return {vid: range(lo - start, hi - start)
                for vid, lo, hi in zip(level, bounds, bounds[1:]) if lo < hi}


def boundary_approx(fg: FundamentalGroup, depth: int,
                    config: TreeBallConfig | None = None) -> BoundaryApprox:
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    return BoundaryApprox(TreeBall(fg, depth, config), depth)


# --- Cantor check -------------------------------------------------------------


@dataclass
class CantorVerdict:
    """The finite-depth Cantor surrogate.  ``basis_separates`` is always true:
    the tree ball decides it (see :func:`cantor_check`), and the field stays
    in the artifact."""

    passed: bool
    perfect_at_depth: bool
    no_dead_ends: bool
    basis_separates: bool
    witnesses: list = field(default_factory=list)

    def to_json(self) -> dict:
        return artifact("cantor_verdict", vars(self))


def cantor_check(b: BoundaryApprox, window: int = 3) -> CantorVerdict:
    """Finite-depth Cantor surrogate: windowed branching and no dead ends.

    Compactness, metrizability and total disconnectedness hold for the ends
    of a tree (Serre, *Trees*, I.4), so by Brouwer's characterisation
    perfectness is the only property of a Cantor set that can be missing.
    Perfect-at-depth: every branch must pass a vertex with >= 2 children in
    every ``window`` consecutive levels.  No dead ends: every vertex at depth
    d-1 has a child.

    Totally-disconnected-at-depth holds by construction, so it is not
    tested.  Two distinct branches whose common prefix has length s part at
    their depth-(s+1) vertices; the cell of the first one's vertex holds its
    branch and not the other, so the clopen basis separates every pair of
    branches.
    """
    if b.depth < 3:
        raise DepthTooSmall(f"depth {b.depth} < 3")
    if window < 1:
        raise ValueError(f"window {window} < 1")
    tree = b.tree
    verdict = CantorVerdict(passed=False, perfect_at_depth=True, no_dead_ends=True,
                            basis_separates=True)
    if not b.leaves:
        verdict.perfect_at_depth = False
        verdict.witnesses.append({"reason": "no branches at this depth"})
        return verdict

    # a window holds only vertices above the leaves, so walk those once
    # top-down (parents precede children): run[v] counts the consecutive
    # vertices with < 2 children on the root path ending at v, and first[v]
    # is the start of the first window without branching on that path, or -1
    fc, parent = tree.first_child, tree.parent
    run = [0] * b.leaves.start
    first = [-1] * b.leaves.start
    for k in range(b.depth):
        for vid in tree.level(k):
            kids = fc[vid + 1] - fc[vid]
            if not kids and k == b.depth - 1:
                verdict.no_dead_ends = False
                verdict.witnesses.append({"reason": "dead end", "vertex": tree.rep(vid).display()})
            p = parent[vid]
            run[vid] = 0 if kids >= 2 else (run[p] + 1 if p >= 0 else 1)
            if p >= 0 and first[p] >= 0:
                first[vid] = first[p]
            elif run[vid] >= window:
                first[vid] = k - window + 1
    for i, leaf in enumerate(b.leaves):
        start = first[tree.parent[leaf]]
        if start >= 0:
            verdict.perfect_at_depth = False
            verdict.witnesses.append({
                "reason": "no branching in window",
                "branch": i, "window_start": start,
            })
            break
    verdict.passed = verdict.perfect_at_depth and verdict.no_dead_ends
    return verdict


# --- limit-set proxies ----------------------------------------------------------

# A member: a coset vertex and its directions, branch indices in the
# BoundaryApprox.  Its witness label is ``TreeBall.label(vid)``, formed only
# for the witnesses of a failed condition, so a passing check forms no rep.
Member = tuple[int, tuple[int, ...]]


def _tame_descent(b: BoundaryApprox) -> list[int]:
    """Per vid down to depth d: the branch reached by following the first
    non-escaping child (the first child, if all escape) at every level, or
    -1 if that walk meets a vertex with no children.  The child followed is
    one sibling index per cone type, so the table is filled bottom-up, a
    level at a time."""
    tree = b.tree
    fc, cone = tree.first_child, tree.cone
    tame = [next((i for i, e in enumerate(entries) if not e.fresh), 0)
            for entries in tree.cones]
    leaf = [-1] * b.leaves.start + list(range(len(b.leaves)))
    for k in reversed(range(b.depth)):
        level = tree.level(k)
        leaf[level.start:level.stop] = [leaf[fc[v] + tame[cone[v]]] if fc[v] < fc[v + 1] else -1
                                        for v in level]
    return leaf


def limit_set_family(b: BoundaryApprox) -> list[Member]:
    """W: the limit-set proxies of the infinite-type coset vertices that have
    directions, as (vid, directions) members in vid order.  A member has one
    branch per escaping (fresh) child, where its tame descent reaches depth
    d.  Finite vertex groups have empty limit sets, and so, at depth d, does
    a vertex at depth >= d: it has no descendant at depth d.  Children come
    in sibling order and own disjoint, ordered branch ranges, so the
    directions are sorted.

    Refuses a tree ball with ``star_small`` < 2, whose members can share
    branches (see (a1) in :func:`amalgam_check`), and one whose star at an
    infinite vertex has edges but no fresh parameter: every member there is
    empty, so (a4) would fail on every prefix group without a counterexample.
    """
    tree = b.tree
    cfg = tree.config
    if cfg.star_small < 2:
        raise ValueError(f"limit sets need --star-small >= 2, got {cfg.star_small}")
    for vtype, entries in zip(tree.cone_vtype, tree.cones):
        if tree.truncated[vtype] and entries and not any(e.fresh for e in entries):
            name = tree.fg.gog.graph.vertex_names[vtype]
            raise ValueError(f"limit sets need a fresh star parameter: vertex {name} has none "
                             f"at --star-fresh {cfg.star_fresh} (--star-radius "
                             f"{cfg.star_radius}, --star-small {cfg.star_small})")
    fc, cone, types = tree.first_child, tree.cone, tree.vtype
    fresh = [[i for i, e in enumerate(entries) if e.fresh] for entries in tree.cones]
    leaf = _tame_descent(b)
    family = []
    for vid in range(b.leaves.start):
        if tree.truncated[types[vid]]:
            first = fc[vid]
            directions = tuple(t for i in fresh[cone[vid]] if (t := leaf[first + i]) >= 0)
            if directions:
                family.append((vid, directions))
    return family


# --- dense-amalgam checker -------------------------------------------------------


@dataclass
class AmalgamCertificate:
    depth: int
    conditions: dict
    family_size: int
    nonempty_members: int

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.conditions.values())

    def to_json(self) -> dict:
        return artifact("amalgam_certificate", {**vars(self), "passed": self.passed})


def amalgam_check(b: BoundaryApprox, family: list[Member],
                  seed: int = 0, samples: int = 20) -> AmalgamCertificate:
    """Check the five dense-amalgam conditions at finite depth on a family of
    members, such as ``limit_set_family`` gives; a member with no directions
    holds no point and is skipped.

    (a1) pairwise disjointness; (a2) nullness with diameter bound 2^(-k+1)
    per coset tree-distance k; (a3) each member's complement is eps-dense;
    (a4) each per-type union is eps-dense; (a5) sampled cross-member pairs
    are separated by an explicit saturated clopen built from an edge split.
    eps = 2^(-depth+2).  ``family_size`` counts the infinite-type coset
    vertices of the ball, and (a4) ranges over their types.

    On a family whose members' directions lie below their coset vertices,
    as in every ``limit_set_family``, three conditions hold by construction
    (they are still checked, for any family):

    * (a2): a member at depth k has its directions below its vertex, so they
      share its first k edges: its diameter is at most 2^(-k) < 2^(-k+1).
    * (a1), with ``star_small`` >= 2: the cone of a truncated vertex drops
      only the identity of its parent edge type, so it keeps a non-fresh
      child, and a member's branches cross one fresh edge, just below its
      vertex, and none after it.  Two members holding one leaf lie on its
      root path, and the lower one's fresh edge would lie on the upper one's
      tame path.  (With one small parameter, the band is the identity alone.)
    * (a5), given (a1): members have distinct vertices, so ``side_in`` is
      never the root and the other member lies outside its subtree; its
      directions leave H, z_out with them.  A member inside keeps all its
      directions, z_in among them, unless an outside member shares one,
      which (a1) forbids; so H is saturated and holds z_in.
    """
    if b.depth < 4:
        raise DepthTooSmall(f"depth {b.depth} < 4")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    tree = b.tree
    d = b.depth
    eps_split = d - 2  # dist <= 2^(-d+2)  <=>  split >= d-2
    conditions: dict[str, dict] = {}
    family = [m for m in family if m[1]]
    label = tree.label

    # (a1) pairwise disjoint; owners[di] lists every member holding di
    witnesses = []
    owners: dict[int, list[int]] = {}
    for mi, (vid, directions) in enumerate(family):
        for di in directions:
            held = owners.setdefault(di, [])
            if held and len(witnesses) < 10:
                witnesses.append({
                    "branch": di,
                    "members": [label(family[held[0]][0]), label(vid)],
                })
            held.append(mi)
    conditions["a1_disjoint"] = {"passed": not witnesses, "witnesses": witnesses[:10]}

    # (a2) nullness.  In the ultrametric a member's diameter is 2^(-s), with s
    # the common prefix length of all its directions.  On one level vid order
    # is the order of root paths (children are appended in parent order), so
    # the last common vertex of a set of branches is that of its least and
    # greatest.  The members at tree distance >= k are those of
    # depth >= k, so the maximum per k is a suffix maximum of the maxima per
    # depth, and it cannot grow with k.
    witnesses = []
    max_diam_at_depth = [0.0] * (d + 1)
    for vid, directions in family:
        lo, hi = min(directions), max(directions)
        if lo != hi:
            cd = min(tree.depth(vid), d)    # a member deeper than d counts at every k
            max_diam_at_depth[cd] = max(max_diam_at_depth[cd], 2.0 ** -b.split(lo, hi))
    max_diam_per_k = list(accumulate(reversed(max_diam_at_depth), max))[::-1]
    for k, diam in enumerate(max_diam_per_k):
        if diam > 2.0 ** (-k + 1):
            witnesses.append({"k": k, "max_diam": diam})
    conditions["a2_null"] = {
        "passed": not witnesses,
        "witnesses": witnesses[:10],
        "max_diam_per_tree_distance": {str(k): v for k, v in enumerate(max_diam_per_k)},
    }

    # (a3) boundary subsets: complement of each member is eps-dense.  Each
    # prefix group is a consecutive range of branches, in vid order, so one
    # pass over a member's sorted directions meets the groups it touches in
    # that order and counts its directions in each by bisection; it covers a
    # group iff it holds all of them.
    witnesses = []
    groups = b.groups_by_prefix(eps_split)
    prefixes = list(groups)
    starts = [under.start for under in groups.values()]
    for vid, directions in family:
        dirs = sorted(set(directions))
        i = 0
        while i < len(dirs):
            anc = prefixes[bisect_right(starts, dirs[i]) - 1]
            j = bisect_left(dirs, groups[anc].stop, i)
            if j - i == len(groups[anc]) and len(witnesses) < 10:
                witnesses.append({"member": label(vid), "prefix_vertex": anc})
            i = j
    conditions["a3_boundary"] = {"passed": not witnesses, "witnesses": witnesses[:10]}

    # (a4) each per-type union is eps-dense
    witnesses = []
    truncated = {t: tree.vtype.count(t) for t, inf in enumerate(tree.truncated) if inf}
    unions: dict[int, set[int]] = {}
    for vid, directions in family:
        unions.setdefault(tree.vtype[vid], set()).update(directions)
    for vtype in sorted(t for t, count in truncated.items() if count):
        union = unions.get(vtype, set())
        for anc, under in groups.items():
            if union.isdisjoint(under):
                witnesses.append({
                    "vtype": tree.fg.gog.graph.vertex_names[vtype],
                    "prefix_vertex": anc,
                })
    conditions["a4_union_dense"] = {"passed": not witnesses, "witnesses": witnesses[:10]}

    # (a5) saturated clopen separation for sampled cross-member pairs.  H lies
    # in the cell U_e, so a member that misses the cell misses H: it neither
    # changes H nor breaks saturation, and only the cell's owners are read.
    witnesses = []
    checked = 0
    rng = random.Random(seed)
    if len(family) >= 2:
        for _ in range(samples):
            (C1, W1), (C2, W2) = (family[mi] for mi in rng.sample(range(len(family)), 2))
            z1 = W1[rng.randrange(len(W1))]
            z2 = W2[rng.randrange(len(W2))]
            if C2 != 0 and not tree.in_subtree(C1, C2):
                side_in, z_in, z_out = C2, z2, z1
            else:
                side_in, z_in, z_out = C1, z1, z2
            cell = b.basis_members(side_in)
            meeting = [family[mi] for mi in {mi for di in cell for mi in owners.get(di, ())}]
            removed = 0
            H = set(cell)
            for vid, directions in meeting:
                if not tree.in_subtree(vid, side_in):
                    H.difference_update(directions)
                    removed += 1
            checked += 1
            saturated = all(
                H.issuperset(directions) or H.isdisjoint(directions)
                for _, directions in meeting
            )
            ok = saturated and (z_in in H) and (z_out not in H)
            if not ok and len(witnesses) < 10:
                witnesses.append({
                    "pair": [label(C1), label(C2)],
                    "edge": side_in - 1,    # printed edge ids are child vid - 1
                    "saturated": saturated,
                    "z_in_ok": z_in in H,
                    "z_out_ok": z_out not in H,
                    "removed_members": removed,
                })
    conditions["a5_saturated_separation"] = {
        "passed": not witnesses,
        "witnesses": witnesses[:10],
        "pairs_checked": checked,
    }

    return AmalgamCertificate(
        depth=d, conditions=conditions,
        family_size=sum(truncated.values()), nonempty_members=len(family),
    )


@dataclass
class DensityVerdict:
    status: str               # "pass" | "fail" | "not_applicable"
    witnesses: list = field(default_factory=list)

    def to_json(self) -> dict:
        return artifact("branch_density", vars(self))


def branch_density_check(b: BoundaryApprox, family: list[Member]) -> DensityVerdict:
    """Every member direction must have a non-member direction within
    visual distance 2^(-d+2): branch-point proxies are dense."""
    if b.depth < 4:
        raise DepthTooSmall(f"depth {b.depth} < 4")
    if b.tree.fg.gog.graph.n_edges == 0:
        return DensityVerdict(status="not_applicable",
                              witnesses=[{"reason": "no tree edges"}])
    owned: set[int] = set()
    for _, directions in family:
        owned.update(directions)
    # a direction's non-member neighbours within 2^(-d+2) are exactly the
    # non-owned branches of its depth-(d-2) prefix group, so only the
    # directions in a group that the members cover fail
    covered = bytearray(len(b))
    for under in b.groups_by_prefix(b.depth - 2).values():
        if owned.issuperset(under):
            covered[under.start:under.stop] = b"\1" * len(under)
    failing = ((vid, di) for vid, directions in family for di in directions if covered[di])
    witnesses = [{"member": b.tree.label(vid), "branch": di} for vid, di in islice(failing, 10)]
    return DensityVerdict(status="pass" if not witnesses else "fail", witnesses=witnesses)


# --- direction classification ------------------------------------------------------


@dataclass
class ClassifyResult:
    kind: str                     # "vertex_point" | "branch_point" | "inconclusive"
    coset_label: str | None = None
    coset_vid: int | None = None
    prefix: tuple[int, ...] = ()  # the common root-path edges, as child vids
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return artifact("classification", {
            "result": self.kind,
            "coset": self.coset_label,
            "prefix_length": len(self.prefix),
            "diagnostics": self.diagnostics,
        })


def dist_to_vertex_coset(fg: FundamentalGroup, tree: TreeBall, x: NormalForm,
                         vid: int) -> int:
    """Exact d_S(x, rep*G_v).

    d(x, rep*h) = |h^-1*rep^-1*x| and h -> h^-1 permutes G_v, so the distance
    is the least |h*rep^-1*x| over h in G_v.  A finite G_v is measured by
    :meth:`FundamentalGroup.coset_distances`, with no rep^-1*x product.  A
    backend G_v is searched over its ball of radius 2|z|, z = rep^-1*x, which
    is symmetric and holds the identity, out to where candidates can no
    longer beat the identity translate.
    """
    vtype, rep = tree.vtype[vid], tree.rep(vid)
    backend = fg.gog.vertex_groups[vtype]
    if backend.is_finite:
        return fg.coset_distances(fg.invert(rep), fg.vertex_subgroup_elements(vtype))(x)
    z = fg.multiply(fg.invert(rep), x)
    members = (fg.vertex_element(vtype, g)
               for g in backend.ball(2 * fg.wordlen(z), fg.ball_budget))
    return min(fg.wordlen(fg.multiply(h, z)) for h in members)


def _common_prefix_length(p: list[int], q: list[int]) -> int:
    n = 0
    while n < len(p) and n < len(q) and p[n] == q[n]:
        n += 1
    return n


def classify_direction(fg: FundamentalGroup, tree: TreeBall, elements,
                       r_bound: int = 4) -> ClassifyResult:
    """Classify a diverging sample of group elements as heading to a vertex
    point (bounded distance from one coset) or a branch point (projections
    move monotonically along a ray), else inconclusive."""
    elements = list(elements)
    if len(elements) < 3:
        return ClassifyResult(kind="inconclusive",
                              diagnostics={"reason": "need at least 3 samples"})
    g = fg.gog.graph
    slack = max(1, g.n_edges)

    candidates: list[int] = []
    seen = set()
    for x in elements[:3]:
        for vtype in range(g.n_vertices):
            vid = tree.find_vertex(x, vtype)
            if vid is not None and vid not in seen:
                seen.add(vid)
                candidates.append(vid)
    for vid in candidates:
        dmax = max(dist_to_vertex_coset(fg, tree, x, vid) for x in elements)
        if dmax <= r_bound:
            return ClassifyResult(
                kind="vertex_point", coset_vid=vid,
                coset_label=tree.label(vid),
                diagnostics={"max_distance": dmax, "r_bound": r_bound},
            )

    projections = []
    for x in elements:
        vid = tree.find_vertex(x, fg.root)
        if vid is None:
            return ClassifyResult(kind="inconclusive",
                                  diagnostics={"reason": "projection left the ball"})
        projections.append(tree.root_path(vid))
    depths = [len(p) for p in projections]
    monotone = all(b >= a for a, b in zip(depths, depths[1:]))
    moving = depths[-1] - depths[0] >= 2
    lcps = [_common_prefix_length(p, q) for p, q in zip(projections, projections[1:])]
    along_ray = all(lcp >= len(p) - slack for lcp, p in zip(lcps, projections))
    if monotone and moving and along_ray:
        return ClassifyResult(
            kind="branch_point", prefix=tuple(projections[-1][:lcps[-1]]),
            diagnostics={"depths": depths, "slack": slack},
        )
    return ClassifyResult(
        kind="inconclusive",
        diagnostics={"depths": depths, "monotone": monotone, "along_ray": along_ray},
    )
