"""Coarse separation: Cayley balls as exact metric spaces, R-path components,
R-separation, the thickening lemma checker, the Cayley-separation and
K-construction verifiers, and the ends estimator.

Separation verdicts are desk-scale: a failure found inside a ball is a real
counterexample (distances are exact in the group, not truncated), while a
"holds" verdict is relative to the ball.  Witnesses whose status could depend
on vertices outside the ball are excluded by a margin from the sphere.
"""

from __future__ import annotations

import itertools
import math
import random
from array import array
from dataclasses import dataclass, field

from .bass_serre import TreeBall
from .errors import BudgetExceeded, Inconclusive, PreconditionUnmet
from .fundgroup import FundamentalGroup, NormalForm
from .groups import UNSET


@dataclass(frozen=True)
class CayleyBall:
    """Exact radius-n ball in (Gamma, d_S), as an indexed graph.

    ``elements`` is in BFS discovery order, layer by layer, so layer k is
    the slice ``layer_starts[k]:layer_starts[k + 1]``, offsets summed from
    ``layer_sizes``; ``index`` maps each element to its position.  So x has
    word length <= k exactly when ``index[x] < layer_starts[k + 1]``.
    Distances between ball elements are computed in the group (never
    truncated to the ball), via ``group.dist``.
    ``step_table`` is the R = 1 neighbour table, filled by the walk that
    found the elements.  Tables for R > 1 are composed from it on first use
    and cached per R; they never change the elements or the layers.
    """

    group: FundamentalGroup
    radius: int
    elements: tuple[NormalForm, ...]
    index: dict[NormalForm, int]
    layer_sizes: tuple[int, ...]
    step_table: array = field(repr=False, compare=False)
    layer_starts: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _tables: dict[int, array] = field(init=False, repr=False, compare=False,
                                      default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "layer_starts", (0, *itertools.accumulate(self.layer_sizes)))

    def __len__(self) -> int:
        return len(self.elements)

    def sphere(self, k: int) -> list[NormalForm]:
        if not 0 <= k <= self.radius:
            return []
        return list(self.elements[self.layer_starts[k]:self.layer_starts[k + 1]])

    def neighbours(self, R: int) -> array:
        """Row-major |B| x m table of R-steps, m = |ball(R)| - 1.

        Entry (i, j) is the position of ``elements[i] * shift_j``, or -1 if
        that product lies outside the ball; the shifts are the non-identity
        elements of ``group.word_metric_ball(R)`` in its order (for R = 1,
        the steps sorted by label).  Entries come from exact group products,
        never from R-hop paths inside the ball, which would miss steps whose
        geodesics leave it.  R = 1 is ``step_table``.  For R > 1, each shift
        is pi·s with s a step and pi an earlier shift of ball(R), so
        x·(pi·s) = (x·pi)·s is a lookup in the R = 1 table whenever x·pi lies
        in the ball, and a -1 found there is exact.  Only an x·pi outside the
        ball falls back to the product x·(pi·s).
        """
        if R == 1:
            return self.step_table
        if R not in self._tables:
            self._tables[R] = self._composed_table(R)
        return self._tables[R]

    def _composed_table(self, R: int) -> array:
        fg, one, n = self.group, self.step_table, len(self)
        shifts = fg.word_metric_ball(R)
        m1 = len(shifts.step_table) // len(shifts)
        # each shift as pi·s with pi an earlier shift, read off ball(R)'s own
        # step table, so pi's column is filled before the shift's
        parent: list = [None] * len(shifts)
        for q in range(len(shifts)):
            for c, p in enumerate(shifts.step_table[q * m1:(q + 1) * m1]):
                if p > q and parent[p] is None:
                    parent[p] = (q, c)
        m = len(shifts) - 1
        table = array("i", [UNSET]) * (n * m)
        for p in range(1, len(shifts)):
            q, c = parent[p]
            via = table[q - 1::m] if q else range(n)  # the positions of x·pi
            shift = shifts.elements[p]
            table[p - 1::m] = array("i", [
                one[k * m1 + c] if k >= 0 else self.index.get(fg.multiply(x, shift), -1)
                for x, k in zip(self.elements, via)])
        return table

    def neighbors(self, i: int) -> list[list]:
        """In-ball Cayley edges at position i: [generator label, position of
        ``elements[i] * s``], in ``step_labels`` order; read off the R = 1
        table."""
        gs = self.group.generating_set()
        row = i * len(gs.steps)
        if not self.radius:  # every step leaves a radius-0 ball
            return []
        out = []
        for lbl, s in zip(gs.step_labels, gs.steps):
            # the first layer is the steps in table column order: column j is position j + 1
            k = self.step_table[row + self.index[s] - 1]
            if k >= 0:
                out.append([lbl, k])
        return out


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


def edge_coset_distance(fg: FundamentalGroup, x: NormalForm, gamma_inv: NormalForm,
                        subgroup) -> int:
    """d(x, gamma·H) for a finite edge subgroup H, given gamma^-1.

    d(x, gamma·h) = |h^-1·gamma^-1·x| and h -> h^-1 permutes H, so the
    distance is the least |h·y| over h in H with y = gamma^-1·x: one product
    per member, and no inverse per member.
    """
    y = fg.multiply(gamma_inv, x)
    return min(fg.wordlen(fg.multiply(h, y)) for h in subgroup)


def diameter(fg: FundamentalGroup, points) -> int:
    """The d_S-diameter of a finite set of group elements.

    d is symmetric (S is closed under inversion), so each unordered pair is
    measured once.
    """
    points = list(points)
    return max((fg.dist(a, b) for i, a in enumerate(points) for b in points[i + 1:]),
               default=0)


def _apart(c0: int, c1: int) -> bool:
    """Whether component labels c0 and c1 name two components; -1 names none."""
    return min(c0, c1) >= 0 and c0 != c1


def _points_apart(ball: CayleyBall, label: list[int], x0: NormalForm, x1: NormalForm) -> bool:
    """``_apart`` for two points; a point outside the ball is in no component."""
    return _apart(*(label[ball.index[x]] if x in ball.index else -1 for x in (x0, x1)))


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
    samples: int = 0
    details: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "separation_report",
            "instance": self.instance,
            "R": self.R,
            "verdict": "holds" if self.holds else "fails",
            "separating_set_size": self.separating_set_size,
            "witness_pairs_tested": self.witness_pairs_tested,
            "failures": self.failures,
            "not_applicable": self.not_applicable,
            "samples": self.samples,
            "details": self.details,
        }


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
                              separating_set_size=len(J))
    report.witness_pairs_tested = 1
    if not r_separates(ball, J, x0, x1, R):
        report.failures.append({
            "x0": x0.display(), "x1": x1.display(),
            "reason": "thickened set fails to R-separate",
        })
    return report


def coset_elements_in_ball(fg: FundamentalGroup, ball: CayleyBall,
                           rep: NormalForm, vtype: int, maxlen: int) -> list[NormalForm]:
    """All elements of rep*G_vtype with word length <= maxlen.

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
    coset = (fg.multiply(rep, h) for h in members)
    return [x for x in coset if index.get(x, bound) < bound]


def verify_cayley_separation(fg: FundamentalGroup, ball_radius: int,
                             samples: int, R: int, seed: int = 0) -> SeparationReport:
    """Empirical suite for the edge-coset separation lemma.

    Sample triples (vertex, vertex, geodesic edge) in the Bass-Serre tree and
    check that N_{ceil(R/2)}(edge coset) R-separates the in-ball, margin-
    filtered members of the two vertex cosets.
    """
    if R < 1 or samples < 0:
        raise ValueError(f"need R >= 1 and samples >= 0, got R = {R}, samples = {samples}")
    ball = fg.word_metric_ball(ball_radius)
    tb = TreeBall(fg, max(3, ball_radius - 2))
    rng = random.Random(seed)
    margin = ball_radius - (R + 1)
    half = math.ceil(R / 2)
    sesq = math.ceil(3 * R / 2)

    report = SeparationReport(instance="cayley-separation", R=R, samples=samples)
    n_vert = len(tb.vertices)
    points: dict[int, list[NormalForm]] = {}  # vid -> coset members in the ball

    def coset_points(vid: int) -> list[NormalForm]:
        if vid not in points:
            v = tb.vertices[vid]
            points[vid] = coset_elements_in_ball(fg, ball, v.rep, v.vtype, margin)
        return points[vid]

    for _ in range(samples):
        u = rng.randrange(n_vert)
        w = rng.randrange(n_vert)
        if u == w:
            report.not_applicable += 1
            continue
        path = tb.geodesic(u, w)
        eid = path[len(path) // 2]
        coset = tb.edge_coset_elements(eid)
        edge = tb.edges[eid]
        gamma_inv = fg.invert(edge.rep)
        subgroup = fg.edge_subgroup_elements(edge.pair)
        eligible_u = [x for x in coset_points(u)
                      if edge_coset_distance(fg, x, gamma_inv, subgroup) >= sesq]
        eligible_w = [x for x in coset_points(w)
                      if edge_coset_distance(fg, x, gamma_inv, subgroup) >= sesq]
        if not eligible_u or not eligible_w:
            report.not_applicable += 1
            continue
        I = thicken(fg, coset, half, ball=ball)
        report.separating_set_size = max(report.separating_set_size, len(I))
        label = r_components(ball, R, excluded=I)
        d_u = [set_distance(x, I, fg.dist) for x in eligible_u]
        d_w = [set_distance(x2, I, fg.dist) for x2 in eligible_w]
        for x, dxI in zip(eligible_u, d_u):
            c = label[ball.index[x]]
            for x2, dx2I in zip(eligible_w, d_w):
                c2 = label[ball.index[x2]]
                report.witness_pairs_tested += 1
                if not (dxI >= R and dx2I >= R and _apart(c, c2)):
                    report.failures.append({
                        "edge": edge.rep.display(),
                        "delta": x.display(), "delta2": x2.display(),
                        "d_delta_I": dxI, "d_delta2_I": dx2I,
                        "same_component": c >= 0 and c == c2,
                    })
    return report


def verify_K_construction(fg: FundamentalGroup, ball_radius: int,
                          edges_sampled: int, seed: int = 0,
                          R_probe: int | None = None) -> SeparationReport:
    """Build K = I_{diam(P)/2} * L with L the identity star in the Cayley
    graph, and verify that translates of K separate the two coset unions of
    every sampled tree-edge split; report the smallest working exclusion
    radius R0 and compare it with diam(I_{3 diam(P)/2}).
    """
    if edges_sampled < 0:
        raise ValueError(f"edges must be >= 0, got {edges_sampled}")
    if R_probe is not None and R_probe < 0:
        raise ValueError(f"R-probe must be >= 0, got {R_probe}")
    ball = fg.word_metric_ball(ball_radius)
    tb = TreeBall(fg, max(3, ball_radius - 2))
    rng = random.Random(seed)
    margin = ball_radius - 2

    # L = closed star of the identity vertex, as a vertex set
    L = [fg.identity()] + [s for s in fg.generating_set().steps]
    # P = {gamma : gamma L meets L} = L * L^{-1}
    P = {fg.multiply(a, fg.invert(b)) for a in L for b in L}
    diam_P = diameter(fg, P)
    base = {e for k in range(fg.gog.graph.n_edges) for e in fg.edge_subgroup_elements(k)}
    I_half = thicken(fg, base, math.ceil(diam_P / 2))
    K = {fg.multiply(i, l) for i in I_half for l in L}
    I_sesq = thicken(fg, base, math.ceil(3 * diam_P / 2))
    pairs = len(I_sesq) * (len(I_sesq) - 1) // 2
    if pairs > fg.ball_budget:
        raise BudgetExceeded(fg.ball_budget, "diam(I_3/2)",
                             f"diam(I_3/2): {pairs} pairs exceed the element budget "
                             f"{fg.ball_budget}")
    diam_I_sesq = diameter(fg, I_sesq)

    report = SeparationReport(instance="K-construction", R=diam_P,
                              samples=edges_sampled,
                              separating_set_size=len(K))
    report.details.update({
        "diam_P": diam_P,
        "diam_I_3/2": diam_I_sesq,
        "L_size": len(L),
        "K_size": len(K),
        "worst_R0": 0,
        "probe_edges": 0,
    })

    n_edges = len(tb.edges)
    if n_edges == 0:
        report.not_applicable = edges_sampled
        return report

    # the in-ball, margin-filtered coset points of each tree vertex, by vid
    points = [coset_elements_in_ball(fg, ball, v.rep, v.vtype, margin) for v in tb.vertices]

    def split_analysis(eid: int):
        """(R0, label) for the split at one tree edge; every coset point
        lies in the ball, so each has a label."""
        edge = tb.edges[eid]
        gammaK = {fg.multiply(edge.rep, k) for k in K}
        side0, side1 = tb.split_by_edge(eid)
        M = {x for vid in side0 for x in points[vid]}
        M2 = {x for vid in side1 for x in points[vid]}
        if not M or not M2:
            return None
        label = r_components(ball, 1, excluded=gammaK)
        gamma_inv = fg.invert(edge.rep)
        subgroup = fg.edge_subgroup_elements(edge.pair)
        AM = [(x, edge_coset_distance(fg, x, gamma_inv, subgroup), label[ball.index[x]])
              for x in M]
        AM2 = [(x, edge_coset_distance(fg, x, gamma_inv, subgroup), label[ball.index[x]])
               for x in M2]
        report.witness_pairs_tested += len(AM) * len(AM2)
        # minimal exclusion radius R0 killing all offending pairs
        max_d_M = max(d for _, d, _ in AM)
        max_d_M2 = max(d for _, d, _ in AM2)
        best_per_comp: dict[int, list[float]] = {}
        R0 = 0
        for side, (A, other_max) in enumerate(((AM, max_d_M2), (AM2, max_d_M))):
            for x, d, c in A:
                if c < 0:  # swallowed by gamma''K
                    R0 = max(R0, min(d, other_max))
                else:
                    best = best_per_comp.setdefault(c, [0, 0])
                    best[side] = max(best[side], d)
        for _, (dm, dm2) in best_per_comp.items():
            if dm > 0 and dm2 > 0:
                R0 = max(R0, min(dm, dm2))
        return R0, label

    for _ in range(edges_sampled):
        eid = rng.randrange(n_edges)
        result = split_analysis(eid)
        if result is None:
            report.not_applicable += 1
            continue
        R0, _ = result
        report.details["worst_R0"] = max(report.details["worst_R0"], R0)
        if R0 > diam_I_sesq:
            report.failures.append({
                "edge": tb.edges[eid].rep.display(),
                "reason": f"required R0 = {R0} exceeds diam(I_3/2) = {diam_I_sesq}",
            })

    # probe: an edge on a sampled geodesic, far from both endpoints, must
    # separate every margin-filtered in-ball coset point with no exceptions
    probe_bound = R_probe if R_probe is not None else report.details["worst_R0"] + 2
    report.details["R_probe"] = probe_bound
    n_vert = len(tb.vertices)
    for _ in range(edges_sampled):
        u = rng.randrange(n_vert)
        w = rng.randrange(n_vert)
        if u == w:
            continue
        path = tb.geodesic(u, w)
        far = [eid for eid in path
               if tb.edge_tree_distance(eid, u) > probe_bound
               and tb.edge_tree_distance(eid, w) > probe_bound]
        if not far:
            continue
        eid = far[len(far) // 2]
        result = split_analysis(eid)
        if result is None:
            continue
        _, label = result
        report.details["probe_edges"] += 1
        for x in points[u]:
            cx = label[ball.index[x]]
            for x2 in points[w]:
                cx2 = label[ball.index[x2]]
                if not _apart(cx, cx2):
                    report.failures.append({
                        "edge": tb.edges[eid].rep.display(),
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
        return {
            "schema_version": 1,
            "kind": "ends_report",
            "radii": list(self.radii),
            "counts": list(self.counts),
            "n_max": self.n_max,
            "exhausted": self.exhausted,
            "verdict": self.verdict,
            "component_sizes": {str(k): v for k, v in self.component_sizes.items()},
        }


def ends_estimate(fg: FundamentalGroup, radii, margin: int = 3) -> EndsReport:
    """Count unbounded-looking complementary components of growing balls.

    For each n, the components of ball(n_max) minus ball(n) that touch the
    outer sphere and are at least n_max - n elements large; the verdict
    follows the stabilization pattern (0, 1, 2, or growing).

    The annuli are nested: going from the largest n down only adds the
    layers between two radii, and adding points can only merge components,
    never split them.  So the smallest annulus is labelled once by
    :func:`r_components`, and each inner layer is then added position by
    position, outermost first, through a union-find over component ids whose
    roots carry their size and their largest ball position.
    """
    radii = tuple(sorted(radii))
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
