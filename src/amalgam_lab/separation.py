"""Coarse separation on Cayley balls: R-path components, R-separation, the
thickening lemma checker, the Cayley-separation and K-construction
verifiers, and the ends estimator.

Separation verdicts are desk-scale: a failure found inside a ball is a real
counterexample (distances are exact in the group, not truncated), while a
"holds" verdict is relative to the ball.  Witnesses whose status could depend
on vertices outside the ball are excluded by a margin from the sphere.

Both verifiers analyse each edge pair of Y once.  Γ acts on its Bass-Serre
tree with one edge orbit per edge pair (Serre, *Trees*, I.4), and d_S is
left-invariant, so γ·e splits γ·X exactly as e splits X: every edge of one
orbit separates the same way.  The edge analysed is the orbit's identity
edge, the one whose coset holds 1.  It is the least truncated view: the
ball B(r) is centred at 1, and a translate γ·e farther out in the tree sits
nearer the sphere, with fewer of its coset points inside the margin.  Its
coset is G_y itself, so every set is built at γ = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .bass_serre import TreeBall, tiling_tree
from .errors import BudgetExceeded, Inconclusive, PreconditionUnmet
from .fundgroup import CayleyBall, FundamentalGroup, NormalForm
from .jsonio import artifact


_FREE, _OUT = -2, -1  # the label of a live point not yet reached, of an excluded one


def r_components(ball: CayleyBall, R: int, excluded=()) -> list[int]:
    """Label the R-path components of ``ball`` minus ``excluded``.

    Entry i is the component of ``ball.elements[i]``, or -1 if that element
    is excluded; excluded elements outside the ball are ignored.  The
    neighbours of a point are a row of the ball's cached R-step table.

    One flood fill labels the live points: it starts from each unreached
    live point in ball order, so components are numbered in order of their
    first position, and a stack carries it across R-steps.
    """
    table, index, n = ball.neighbours(R), ball.index, len(ball)
    # one slot past the end, so a table's -1 (outside the ball) reads _OUT
    label = [_FREE] * n + [_OUT]
    for p in excluded:
        i = index.get(p)
        if i is not None:
            label[i] = _OUT
    m = len(table) // n
    n_comps = 0
    for start in range(n):
        if label[start] != _FREE:
            continue
        label[start] = n_comps
        stack = [start]
        while stack:
            i = stack.pop()
            for j in table[i * m:(i + 1) * m]:
                if label[j] == _FREE:
                    label[j] = n_comps
                    stack.append(j)
        n_comps += 1
    label.pop()
    return label


def set_distance(x, elems, dist) -> float:
    if not elems:
        return math.inf
    return min(dist(x, c) for c in elems)


def diameter(fg: FundamentalGroup, points) -> int:
    """The d_S-diameter of a finite set of group elements, exact, by
    bound-and-prune over the unordered pairs.

    S = S^-1, so |a^-1| = |a| and, by the triangle inequality through 1,
    d(a, b) = |a^-1·b| <= |a| + |b|.  The points are taken longest first,
    so along the order the bound |a_i| + |a_j| only falls: once it is at
    most the best distance measured so far, no later j can beat it, and the
    inner loop stops; once it fails already at j = i + 1, no later i can,
    and the search stops.  Every pair skipped is one whose bound is at most
    ``best``, so the maximum is exact.  In the worst case (no bound ever
    falls to ``best``) every unordered pair is measured once.

    Each point's length is read once.  Both callers pass sets that hold 1
    (P = B(2), and I_{3/2} contains the edge groups), and d(1, x) = |x| was
    one of the pairs the all-pairs search measured, so the ``wordlen`` walk
    goes no further than it did there.
    """
    length = {a: fg.wordlen(a) for a in points}
    order = sorted(length, key=length.__getitem__, reverse=True)
    lengths = [length[a] for a in order]
    best = 0
    for i in range(len(order) - 1):
        if lengths[i] + lengths[i + 1] <= best:
            break
        a = order[i]
        for j in range(i + 1, len(order)):
            if lengths[i] + lengths[j] <= best:
                break
            best = max(best, fg.dist(a, order[j]))
    return best


def _points_apart(ball: CayleyBall, label: list[int], x0: NormalForm, x1: NormalForm) -> bool:
    """Whether x0 and x1 lie in two components of ``label``; an excluded
    point (-1) or one outside the ball is in no component."""
    c0, c1 = (label[ball.index[x]] if x in ball.index else -1 for x in (x0, x1))
    return min(c0, c1) >= 0 and c0 != c1


def r_separates(ball: CayleyBall, I, x0: NormalForm, x1: NormalForm, R: int) -> bool:
    """Definition check: d(x0,I) >= R, d(x1,I) >= R, and no R-path in
    ball minus I joins x0 to x1."""
    dist = ball.group.dist
    if set_distance(x0, I, dist) < R or set_distance(x1, I, dist) < R:
        return False
    return _points_apart(ball, r_components(ball, R, excluded=set(I)), x0, x1)


@dataclass
class SeparationReport:
    """Outcome of one empirical separation suite."""

    instance: str
    R: float
    separating_set_size: int = 0
    witness_pairs_tested: int = 0
    failures: list = field(default_factory=list)
    not_applicable: int = 0
    details: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return artifact("separation_report",
                        {**vars(self), "verdict": "holds" if self.holds else "fails"})


def thicken(fg: FundamentalGroup, core, r: int,
            ball: CayleyBall | None = None) -> set[NormalForm]:
    """N_r(core) as a set of group elements; intersected with ``ball`` if given."""
    if r == 0:
        out = set(core)
    else:
        shifts = fg.word_metric_ball(r).elements
        out = {fg.multiply(c, s) for c in core for s in shifts}
    if ball is not None:
        out &= ball.index.keys()
    return out


def verify_thickening_lemma(ball: CayleyBall, I, x0: NormalForm, x1: NormalForm,
                            R: int) -> SeparationReport:
    """Check: if I separates x0 from x1 in the Cayley graph and both are
    >= ceil(3R/2) from I, then N_{ceil(R/2)}(I) R-separates them.

    Half-integer radii round up (the graph metric is integer-valued).
    """
    fg = ball.group
    I = list(I)
    d0 = set_distance(x0, I, fg.dist)
    d1 = set_distance(x1, I, fg.dist)
    need = math.ceil(3 * R / 2)
    if d0 < need:
        raise PreconditionUnmet(f"d(x0, I) = {d0} < {need}", x0.display())
    if d1 < need:
        raise PreconditionUnmet(f"d(x1, I) = {d1} < {need}", x1.display())
    if not _points_apart(ball, r_components(ball, 1, excluded=I), x0, x1):
        raise PreconditionUnmet("I does not separate x0 from x1 in the graph")
    J = thicken(fg, I, math.ceil(R / 2), ball=ball)
    report = SeparationReport(instance="thickening-lemma", R=R,
                              separating_set_size=len(J), witness_pairs_tested=1)
    # J lies within ceil(R/2) of I, so d(x_i, J) >= ceil(3R/2) - ceil(R/2) = R
    if not _points_apart(ball, r_components(ball, R, excluded=J), x0, x1):
        report.failures.append({
            "x0": x0.display(), "x1": x1.display(),
            "reason": "thickened set fails to R-separate",
        })
    return report


def coset_elements_in_ball(fg: FundamentalGroup, ball: CayleyBall,
                           rep: NormalForm, vtype: int, maxlen: int) -> list[NormalForm]:
    """All elements of rep*G_vtype with word length <= maxlen, as the
    ball's own objects.

    ``ball`` is the exact word-metric ball of ``fg``, so a member's word
    length is at most maxlen exactly when its ball position is below
    ``ball.layer_starts[maxlen + 1]``.
    """
    if maxlen > ball.radius:
        raise ValueError(f"maxlen {maxlen} exceeds the ball radius {ball.radius}")
    if maxlen < 0:
        return []
    backend = fg.gog.vertex_groups[vtype]
    if backend.is_finite:
        members = sorted(fg.vertex_subgroup_elements(vtype), key=lambda n: n.sort_key())
    else:
        reach = maxlen + fg.wordlen(rep)
        members = [fg.vertex_element(vtype, g) for g in backend.ball(reach, fg.ball_budget)]
    index, bound = ball.index, ball.layer_starts[maxlen + 1]
    positions = (index.get(fg.multiply(rep, h), bound) for h in members)
    return [ball.elements[i] for i in positions if i < bound]


def _coset_points(points: list[list[NormalForm]], vids) -> list[NormalForm]:
    """The coset points of the tree vertices ``vids``, by vid, each once: a
    point lies in the cosets of every vertex along an edge coset it is in."""
    return list(dict.fromkeys(x for vid in sorted(vids) for x in points[vid]))


def _identity_edges(fg: FundamentalGroup, ball_radius: int, margin: int):
    """The setup both verifiers share: the tree ball of depth
    max(3, radius - 2), B(radius), each tree vertex's in-ball coset points
    within ``margin``, by vid, and per edge pair y, at its identity edge:
    (name, G_y, child vid, the two sides as vids, each side's points x with
    d(x, G_y), read off one ``coset_distances(1, G_y)`` map)."""
    tb = TreeBall(fg, max(3, ball_radius - 2))
    children = tiling_tree(tb).edge_ids   # NoEdges: no edge coset to test
    ball = fg.word_metric_ball(ball_radius)
    points = [coset_elements_in_ball(fg, ball, v.rep, v.vtype, margin) for v in tb.vertices]
    edges = []
    for child in children:
        pair = tb.vertices[child].pair
        H = fg.edge_subgroup_elements(pair)
        distance = fg.coset_distances(fg.identity(), H)   # x -> d(x, G_y)
        sides = tb.split_by_edge(child)
        edges.append((fg.gog.graph.edge_names[pair], H, child, sides,
                      [[(x, distance(x)) for x in _coset_points(points, side)] for side in sides]))
    return tb, ball, points, edges


def _joined_pairs(label: list[int], index: dict, sides) -> list[tuple]:
    """Witness pairs (x, x2), x from ``sides[0]`` and x2 from ``sides[1]``,
    that are not apart under ``label``: one per component holding points of
    both sides, and one for the points in no component (label -1), if any.
    Empty when a side is.  Each point is read once, so the cost is linear
    in the points, not in the pairs."""
    firsts: tuple[dict, dict] = ({}, {})   # per side: label -> its first point
    for first, side in zip(firsts, sides):
        for x in side:
            first.setdefault(label[index[x]], x)
    a, b = firsts
    if not a or not b:
        return []
    a0, b0 = next(iter(a.values())), next(iter(b.values()))
    return [(a.get(c, a0), b.get(c, b0)) for c in sorted(a.keys() | b.keys())
            if c < 0 or (c in a and c in b)]


def verify_cayley_separation(fg: FundamentalGroup, ball_radius: int,
                             R: int) -> SeparationReport:
    """Empirical suite for the edge-coset separation lemma.

    For the identity edge of each edge pair y of Y, check that
    I = N_{ceil(R/2)}(G_y) R-separates the in-ball, margin-filtered members
    of the vertex cosets on one side of it from those on the other.
    A radius below R + 1 leaves no coset point inside the margin, so it is
    an error, not a vacuous pass; so is a radius at which no edge has
    eligible points on both sides, and a graph with no edges.

    Only the R-components are tested: an eligible x has d(x, G_y) >=
    ceil(3R/2) and I lies within ceil(R/2) of G_y, so by the triangle
    inequality d(x, I) >= ceil(3R/2) - ceil(R/2) = R for every integer R.
    """
    if R < 1:
        raise ValueError(f"need R >= 1, got R = {R}")
    if ball_radius < R + 1:
        raise ValueError(f"radius must be >= R + 1 = {R + 1}, got {ball_radius}")
    _, ball, _, edges = _identity_edges(fg, ball_radius, ball_radius - (R + 1))
    sesq = math.ceil(3 * R / 2)

    report = SeparationReport(instance="cayley-separation", R=R)
    for name, H, _, _, measured in edges:
        eligible = [[x for x, d in side if d >= sesq] for side in measured]
        if not all(eligible):
            report.not_applicable += 1
            continue
        I = thicken(fg, H, math.ceil(R / 2), ball=ball)
        report.separating_set_size = max(report.separating_set_size, len(I))
        label = r_components(ball, R, excluded=I)
        report.witness_pairs_tested += len(eligible[0]) * len(eligible[1])
        for x, x2 in _joined_pairs(label, ball.index, eligible):
            report.failures.append({"edge": name, "delta": x.display(), "delta2": x2.display(),
                                    "reason": "pair not R-separated"})
    if not report.witness_pairs_tested:
        raise PreconditionUnmet(f"radius {ball_radius}: no edge has eligible coset points "
                                f"on both sides; increase the radius")
    return report


def verify_K_construction(fg: FundamentalGroup, ball_radius: int,
                          R_probe: int | None = None) -> SeparationReport:
    """Build K = I_{diam(P)/2} * L with L the identity star in the Cayley
    graph, and verify that K separates the two coset unions of the split at
    the identity edge G_y of each edge pair of Y; report the smallest
    working exclusion radius R0 of each pair and compare the largest with
    diam(I_{3 diam(P)/2}).

    Every set is read off a ball: L = B(1), P = L·L^-1 = B(2) as S = S^-1,
    and K = N_{ceil(diam(P)/2)+1}(U), U the union of the edge groups.  Each
    identity edge's coset holds 1, so one labelling of the ball minus K
    serves every edge pair and the probe.

    A radius below 2 leaves no coset point inside the margin, so it is an
    error; so is a radius at which no edge has coset points on both sides,
    and a graph with no edges, which has no tree edge to split at.
    """
    if ball_radius < 2:
        raise ValueError(f"radius must be >= 2, got {ball_radius}")
    if R_probe is not None and R_probe < 0:
        raise ValueError(f"R-probe must be >= 0, got {R_probe}")
    tb, ball, points, edges = _identity_edges(fg, ball_radius, ball_radius - 2)
    L = ball.elements[:ball.layer_starts[2]]
    P = ball.elements[:ball.layer_starts[3]]
    diam_P = diameter(fg, P)
    base = {e for k in range(fg.gog.graph.n_edges) for e in fg.edge_subgroup_elements(k)}
    K = thicken(fg, base, math.ceil(diam_P / 2) + 1)
    I_sesq = thicken(fg, base, math.ceil(3 * diam_P / 2))
    pairs = len(I_sesq) * (len(I_sesq) - 1) // 2
    if pairs > fg.ball_budget:
        raise BudgetExceeded(fg.ball_budget, "diam(I_3/2)",
                             f"diam(I_3/2): {pairs} pairs exceed the element budget "
                             f"{fg.ball_budget}")
    diam_I_sesq = diameter(fg, I_sesq)

    report = SeparationReport(instance="K-construction", R=diam_P,
                              separating_set_size=len(K))
    R0s: dict[str, int] = {}   # edge name -> R0 at its identity edge
    report.details.update({
        "diam_P": diam_P,
        "diam_I_3/2": diam_I_sesq,
        "L_size": len(L),
        "K_size": len(K),
        "R0": R0s,
        "probe_edges": 0,
        "probe_pairs": 0,
    })

    label = r_components(ball, 1, excluded=K)
    analysed = []   # the edges with coset points off their coset on both sides
    for name, _, child, sides, (AM, AM2) in edges:
        max_d = [max((d for _, d in A), default=0) for A in (AM, AM2)]
        if not all(max_d):   # a side with no coset point off the edge coset
            report.not_applicable += 1
            continue
        # minimal exclusion radius R0 killing all offending pairs
        best_per_comp: dict[int, list[float]] = {}
        R0 = 0
        for side, A in enumerate((AM, AM2)):
            for x, d in A:
                c = label[ball.index[x]]
                if c < 0:  # swallowed by K
                    R0 = max(R0, min(d, max_d[1 - side]))
                else:
                    best = best_per_comp.setdefault(c, [0, 0])
                    best[side] = max(best[side], d)
        R0 = max([R0, *(min(best) for best in best_per_comp.values())])
        report.witness_pairs_tested += len(AM) * len(AM2)
        R0s[name] = R0
        analysed.append((name, child, sides))
        if R0 > diam_I_sesq:
            report.failures.append({
                "edge": name,
                "reason": f"required R0 = {R0} exceeds diam(I_3/2) = {diam_I_sesq}",
            })
    if not analysed:
        raise PreconditionUnmet(f"radius {ball_radius}: no edge has coset points off its "
                                f"coset on both sides; increase the radius")
    report.details["worst_R0"] = max(R0s.values())

    # probe: the identity edge must separate, with no exclusions, every pair
    # of coset points of tree vertices on its two sides farther than the bound
    probe_bound = R_probe if R_probe is not None else report.details["worst_R0"] + 2
    report.details["R_probe"] = probe_bound
    for name, child, sides in analysed:
        far = [_coset_points(points, [vid for vid in side
                                      if tb.edge_tree_distance(child, vid) > probe_bound])
               for side in sides]
        if not all(far):
            continue
        report.details["probe_edges"] += 1
        report.details["probe_pairs"] += len(far[0]) * len(far[1])
        for x, x2 in _joined_pairs(label, ball.index, far):
            report.failures.append({
                "edge": name,
                "reason": "probe pair not separated",
                "delta": x.display(), "delta2": x2.display(),
            })
    return report


@dataclass
class EndsReport:
    radii: tuple[int, ...]
    counts: tuple[int, ...]
    n_max: int
    exhausted: bool
    verdict: str
    component_sizes: dict

    def to_json(self) -> dict:
        # str keys: the artifacts order radii as text ("10" < "2") under sort_keys
        sizes = {str(k): v for k, v in self.component_sizes.items()}
        return artifact("ends_report", {**vars(self), "component_sizes": sizes})


def ends_estimate(fg: FundamentalGroup, radii, margin: int = 3) -> EndsReport:
    """Count unbounded-looking complementary components of growing balls.

    For each n, the components of ball(n_max) minus ball(n) that touch the
    outer sphere and are at least n_max - n elements large; the verdict
    follows the stabilization pattern (0, 1, 2, or growing), which needs at
    least two distinct radii; an exhausted ball is the whole finite group and
    reads 0 at any radius.

    The annuli are nested: going from the largest n down only adds the
    layers between two radii, and adding points can only merge components,
    never split them.  So the smallest annulus is labelled once by
    :func:`r_components`, and each inner layer is then added position by
    position, outermost first, through a union-find over component ids whose
    roots carry their size and their largest ball position.
    """
    radii = tuple(sorted(set(radii)))  # a repeated radius counts once
    if not radii:
        raise ValueError("radii must be nonempty")
    if radii[0] < 0 or margin < 0:
        raise ValueError(f"need radii and margin >= 0, got radii {list(radii)}, margin {margin}")
    n_max = radii[-1] + margin
    ball = fg.word_metric_ball(n_max)
    exhausted = ball.layer_sizes[-1] == 0

    # the annulus of n is the ball minus its prefix ball(n): positions >= starts[n + 1]
    starts, table = ball.layer_starts, ball.step_table
    m = len(table) // len(ball)
    outer = starts[-2]  # position of the first outer-sphere element
    low = starts[radii[-1] + 1]
    # ball position -> its union-find node: at first the component of the
    # smallest annulus; each inner position added later gets a node of its own
    node = r_components(ball, 1, excluded=ball.elements[:low])
    parent = list(range(max(node) + 1))
    size, top = [0] * len(parent), [0] * len(parent)
    for p in range(low, len(ball)):
        size[node[p]] += 1
        top[node[p]] = p  # positions ascend, so the last one is the largest

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    sizes = {}
    for n in reversed(radii):
        for p in range(low - 1, starts[n + 1] - 1, -1):
            # every position above p is in the annulus already, and only those
            a = node[p] = len(parent)
            parent.append(a)
            size.append(1)
            top.append(p)
            for j in table[p * m:(p + 1) * m]:
                if j > p:
                    b = find(node[j])
                    if b != a:
                        parent[b] = a
                        size[a] += size[b]
                        top[a] = max(top[a], top[b])
        low = starts[n + 1]
        # noise floor: an unbounded component must span the annulus radially,
        # so anything smaller than the radial width is a transient crumb
        floor = max(1, n_max - n)
        sizes[n] = sorted((size[a] for a in range(len(parent))
                           if parent[a] == a and top[a] >= outer and size[a] >= floor),
                          reverse=True)
    sizes = {n: sizes[n] for n in radii}

    counts_t = tuple(len(sizes[n]) for n in radii)
    if exhausted and all(c == 0 for c in counts_t):
        verdict = "0"
    elif len(radii) < 2:
        raise Inconclusive(f"component counts {counts_t} did not stabilize: "
                           f"a pattern needs two distinct radii, got {list(radii)}")
    elif all(c == 1 for c in counts_t):
        verdict = "1"
    elif all(c == 2 for c in counts_t):
        verdict = "2"
    elif all(b > a for a, b in zip(counts_t, counts_t[1:])) and counts_t[-1] > 2:
        verdict = "infinity-growing"
    else:
        raise Inconclusive(f"component counts {counts_t} did not stabilize")
    return EndsReport(radii=radii, counts=counts_t, n_max=n_max,
                      exhausted=exhausted, verdict=verdict,
                      component_sizes=sizes)
