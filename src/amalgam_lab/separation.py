"""Coarse separation: Cayley balls as exact metric spaces, R-path components,
R-separation, the thickening lemma checker, the Cayley-separation and
K-construction verifiers, and the ends estimator.

Separation verdicts are desk-scale: a failure found inside a ball is a real
counterexample (distances are exact in the group, not truncated), while a
"holds" verdict is relative to the ball.  Witnesses whose status could depend
on vertices outside the ball are excluded by a margin from the sphere.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field

from .errors import Inconclusive, PreconditionUnmet
from .fundgroup import FundamentalGroup, NormalForm
from .gog import GraphOfGroups, SpanningData


@dataclass(frozen=True)
class CayleyBall:
    """Exact radius-n ball in (Gamma, d_S), as an indexed graph.

    ``elements`` is in BFS discovery order, layer by layer, so layer k is a
    slice whose offset follows from ``layer_sizes``; ``index`` maps each
    element to its position.  Distances between ball elements are computed
    in the group (never truncated to the ball), via ``group.dist``.
    Neighbour tables are derived on first use and cached per R; they never
    change the elements or the layers.
    """

    group: FundamentalGroup
    radius: int
    elements: tuple[NormalForm, ...]
    index: dict[NormalForm, int]
    layer_sizes: tuple[int, ...]
    _starts: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _tables: dict[int, array] = field(init=False, repr=False, compare=False,
                                      default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "_starts", (0, *itertools.accumulate(self.layer_sizes)))

    def __contains__(self, x: NormalForm) -> bool:
        return x in self.index

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def depth(self) -> Mapping[NormalForm, int]:
        """Read-only element -> word length, looked up on the layer offsets."""
        return _Depths(self)

    def sphere(self, k: int) -> list[NormalForm]:
        if not 0 <= k <= self.radius:
            return []
        return list(self.elements[self._starts[k]:self._starts[k + 1]])

    def dist(self, x: NormalForm, y: NormalForm) -> int:
        return self.group.dist(x, y)

    def neighbours(self, R: int) -> array:
        """Row-major |B| x m table of R-steps, m = |ball(R)| - 1.

        Entry (i, j) is the position of ``elements[i] * shift_j``, or -1 if
        that product lies outside the ball; the shifts are the non-identity
        elements of ``group.word_metric_ball(R)`` in its order (for R = 1,
        the steps sorted by label).  Built once per R from exact group
        products: R-hop paths inside the ball would miss steps whose
        geodesics leave it.
        """
        if R not in self._tables:
            self._tables[R] = _neighbour_table(self.elements, self.index, R)
        return self._tables[R]

    def neighbors(self, x: NormalForm) -> list[tuple[str, NormalForm]]:
        """In-ball Cayley edges at x: (generator label, x * s), in
        ``step_labels`` order; read off the R = 1 table."""
        gs = self.group.generating_set()
        # table column j is position j + 1 of ball(1): its steps in BFS order
        columns = self.group.word_metric_ball(1).index
        row = self.index[x] * len(gs.steps)
        table = self.neighbours(1)
        out = []
        for lbl, s in zip(gs.step_labels, gs.steps):
            k = table[row + columns[s] - 1]
            if k >= 0:
                out.append((lbl, self.elements[k]))
        return out


class _Depths(Mapping):
    """``CayleyBall.depth``: the layer of each element, by bisecting its
    position against the layer offsets; holds no dict of its own."""

    def __init__(self, ball: CayleyBall):
        self._ball = ball

    def __getitem__(self, x: NormalForm) -> int:
        return bisect.bisect_right(self._ball._starts, self._ball.index[x]) - 1

    def __iter__(self):
        return iter(self._ball.index)

    def __len__(self) -> int:
        return len(self._ball.index)


_UNSET = -2


def _neighbour_table(elements, index: dict, R: int) -> array:
    """The table of :meth:`CayleyBall.neighbours` for distinct group
    elements with position ``index``, in one pass of exact products.

    The shifts are closed under inversion, so a product x * s = y found in
    the set also fills y's entry for s^-1 (which is x) without a multiply.
    """
    if not elements:
        return array("i")
    fg = elements[0].group
    shifts = fg.word_metric_ball(R).elements[1:]
    column = {s: j for j, s in enumerate(shifts)}
    inverse = [column[fg.invert(s)] for s in shifts]
    m = len(shifts)
    table = array("i", [_UNSET]) * (len(elements) * m)
    mul, get = fg.multiply, index.get
    for i, x in enumerate(elements):
        row = i * m
        for j, s in enumerate(shifts):
            if table[row + j] == _UNSET:
                k = get(mul(x, s), -1)
                table[row + j] = k
                if k >= 0:
                    table[k * m + inverse[j]] = i
    return table


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def r_components(points, R: int, excluded=(), dist=None) -> list[list]:
    """Partition points minus ``excluded`` into maximal R-path components.

    ``points`` is a :class:`CayleyBall` (its cached R-step table is used,
    and excluded elements outside the ball are ignored) or a sequence of
    distinct points.  A sequence of group elements gets an uncached table of
    exact word-metric steps; other point types need an explicit ``dist``
    function (then all pairs are inspected).  Components are ordered by
    first appearance and keep the input order.
    """
    if dist is None:
        if isinstance(points, CayleyBall):
            elements, index, table = points.elements, points.index, points.neighbours(R)
        else:
            elements = list(points)
            if elements and not isinstance(elements[0], NormalForm):
                raise ValueError("non-group points require a dist function")
            index = {p: i for i, p in enumerate(elements)}
            table = _neighbour_table(elements, index, R)
        masked = bytearray(len(elements))
        for p in excluded:
            i = index.get(p)
            if i is not None:
                masked[i] = 1
        live = [i for i in range(len(elements)) if not masked[i]]
        uf = _UnionFind(len(elements))
        m = len(table) // len(elements) if elements else 0
        for i in live:
            # the steps are closed under inversion: each edge is seen from both ends
            for j in table[i * m:(i + 1) * m]:
                if j > i and not masked[j]:
                    uf.union(i, j)
    else:
        elements = list(points)
        excluded = set(excluded)
        live = [i for i, p in enumerate(elements) if p not in excluded]
        uf = _UnionFind(len(elements))
        for a, i in enumerate(live):
            for j in live[a + 1:]:
                if dist(elements[i], elements[j]) <= R:
                    uf.union(i, j)
    # union keeps the smaller root, so roots appear in order of first member
    comps: dict[int, list] = {}
    for i in live:
        comps.setdefault(uf.find(i), []).append(elements[i])
    return list(comps.values())


def component_labels(points, R: int, excluded=(), dist=None) -> dict:
    labels = {}
    for ci, comp in enumerate(r_components(points, R, excluded, dist)):
        for p in comp:
            labels[p] = ci
    return labels


def set_distance(x, elems, dist) -> float:
    if not elems:
        return math.inf
    return min(dist(x, c) for c in elems)


def r_separates(space, I, x0, x1, R: int, dist=None) -> bool:
    """Definition check: d(x0,I) >= R, d(x1,I) >= R, and no R-path in
    space minus I joins x0 to x1."""
    if dist is None:
        dist = lambda a, b: a.group.dist(a, b)  # noqa: E731
    if set_distance(x0, I, dist) < R or set_distance(x1, I, dist) < R:
        return False
    labels = component_labels(space, R, excluded=set(I), dist=None if isinstance(x0, NormalForm) else dist)
    if x0 not in labels or x1 not in labels:
        return False
    return labels[x0] != labels[x1]


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


def thicken(fg: FundamentalGroup, core, r: int, universe=None) -> set[NormalForm]:
    """N_r(core) as a set of group elements; intersected with universe if given."""
    if r == 0:
        out = set(core)
    else:
        shifts = fg.word_metric_ball(r).elements
        out = {fg.multiply(c, s) for c in core for s in shifts}
    if universe is not None:
        out &= set(universe)
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
    labels = component_labels(ball, 1, excluded=I)
    if x0 not in labels or x1 not in labels or labels[x0] == labels[x1]:
        raise PreconditionUnmet("I does not separate x0 from x1 in the graph")
    J = thicken(fg, I, math.ceil(R / 2), universe=ball.elements)
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
    """All elements of rep*G_vtype with word length <= maxlen."""
    backend = fg.vertex_backend(vtype)
    out = []
    if backend.is_finite:
        subgroup = sorted(fg.vertex_subgroup_elements(vtype),
                          key=lambda n: n.sort_key())
        for h in subgroup:
            x = fg.multiply(rep, h)
            if fg.wordlen(x) <= maxlen:
                out.append(x)
    else:
        reach = maxlen + fg.wordlen(rep)
        for g in backend.ball(reach, fg.ball_budget):
            x = fg.multiply(rep, fg.vertex_element(vtype, g))
            if fg.wordlen(x) <= maxlen:
                out.append(x)
    return out


def verify_cayley_separation(gog: GraphOfGroups, sd: SpanningData, ball_radius: int,
                             samples: int, R: int, seed: int = 0,
                             tree_radius: int | None = None) -> SeparationReport:
    """Empirical suite for the edge-coset separation lemma.

    Sample triples (vertex, vertex, geodesic edge) in the Bass-Serre tree and
    check that N_{ceil(R/2)}(edge coset) R-separates the in-ball, margin-
    filtered members of the two vertex cosets.
    """
    from .bass_serre import TreeBall

    fg = FundamentalGroup(gog, sd)
    ball = fg.word_metric_ball(ball_radius)
    tradius = tree_radius if tree_radius is not None else max(3, ball_radius - 2)
    tb = TreeBall(fg, tradius)
    rng = random.Random(seed)
    margin = ball_radius - (R + 1)
    half = math.ceil(R / 2)
    sesq = math.ceil(3 * R / 2)

    report = SeparationReport(instance="cayley-separation", R=R, samples=samples)
    n_vert = len(tb.vertices)
    for _ in range(samples):
        u = rng.randrange(n_vert)
        w = rng.randrange(n_vert)
        if u == w:
            report.not_applicable += 1
            continue
        path = tb.geodesic(u, w)
        eid = path[len(path) // 2]
        coset = tb.edge_coset_elements(eid)
        du = tb.vertices[u]
        dw = tb.vertices[w]
        eligible_u = [
            x for x in coset_elements_in_ball(fg, ball, du.rep, du.vtype, margin)
            if set_distance(x, coset, fg.dist) >= sesq
        ]
        eligible_w = [
            x for x in coset_elements_in_ball(fg, ball, dw.rep, dw.vtype, margin)
            if set_distance(x, coset, fg.dist) >= sesq
        ]
        if not eligible_u or not eligible_w:
            report.not_applicable += 1
            continue
        I = thicken(fg, coset, half, universe=ball.elements)
        report.separating_set_size = max(report.separating_set_size, len(I))
        labels = component_labels(ball, R, excluded=I)
        for x in eligible_u:
            for x2 in eligible_w:
                report.witness_pairs_tested += 1
                dxI = set_distance(x, I, fg.dist)
                dx2I = set_distance(x2, I, fg.dist)
                ok = (dxI >= R and dx2I >= R
                      and x in labels and x2 in labels and labels[x] != labels[x2])
                if not ok:
                    report.failures.append({
                        "edge": tb.edges[eid].rep.display(),
                        "delta": x.display(), "delta2": x2.display(),
                        "d_delta_I": dxI, "d_delta2_I": dx2I,
                        "same_component": bool(
                            x in labels and x2 in labels and labels[x] == labels[x2]),
                    })
    return report


def verify_K_construction(gog: GraphOfGroups, sd: SpanningData, ball_radius: int,
                          edges_sampled: int, seed: int = 0,
                          R_probe: int | None = None,
                          tree_radius: int | None = None) -> SeparationReport:
    """Build K = I_{diam(P)/2} * L with L the identity star in the Cayley
    graph, and verify that translates of K separate the two coset unions of
    every sampled tree-edge split; report the smallest working exclusion
    radius R0 and compare it with diam(I_{3 diam(P)/2}).
    """
    from .bass_serre import TreeBall

    fg = FundamentalGroup(gog, sd)
    ball = fg.word_metric_ball(ball_radius)
    tradius = tree_radius if tree_radius is not None else max(3, ball_radius - 2)
    tb = TreeBall(fg, tradius)
    rng = random.Random(seed)
    margin = ball_radius - 2

    # L = closed star of the identity vertex, as a vertex set
    L = [fg.identity()] + [s for s in fg.generating_set().steps]
    # P = {gamma : gamma L meets L} = L * L^{-1}
    P = sorted({fg.multiply(a, fg.invert(b)) for a in L for b in L},
               key=lambda n: n.sort_key())
    diam_P = max(fg.dist(a, b) for a in P for b in P)
    r_half = math.ceil(diam_P / 2)
    base = sorted({e for k in range(gog.graph.n_edges)
                   for e in fg.edge_subgroup_elements(k)}, key=lambda n: n.sort_key())
    I_half = sorted(thicken(fg, base, r_half), key=lambda n: n.sort_key())
    K = sorted({fg.multiply(i, l) for i in I_half for l in L},
               key=lambda n: n.sort_key())
    r_sesq = math.ceil(3 * diam_P / 2)
    I_sesq = sorted(thicken(fg, base, r_sesq), key=lambda n: n.sort_key())
    diam_I_sesq = max(fg.dist(a, b) for a in I_sesq for b in I_sesq)

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

    def side_elements(side):
        out = []
        for vid in sorted(side):
            v = tb.vertices[vid]
            out.extend(coset_elements_in_ball(fg, ball, v.rep, v.vtype, margin))
        return sorted(set(out), key=lambda n: n.sort_key())

    def split_analysis(eid: int):
        """(R0, labels, gammaK) for the split at one tree edge."""
        edge = tb.edges[eid]
        coset = tb.edge_coset_elements(eid)
        gammaK = {fg.multiply(edge.rep, k) for k in K}
        side0, side1 = tb.split_by_edge(eid)
        M = side_elements(side0)
        M2 = side_elements(side1)
        if not M or not M2:
            return None
        labels = component_labels(ball, 1, excluded=gammaK)
        AM = [(x, set_distance(x, coset, fg.dist), labels.get(x)) for x in M]
        AM2 = [(x, set_distance(x, coset, fg.dist), labels.get(x)) for x in M2]
        report.witness_pairs_tested += len(AM) * len(AM2)
        # minimal exclusion radius R0 killing all offending pairs
        max_d_M = max(d for _, d, _ in AM)
        max_d_M2 = max(d for _, d, _ in AM2)
        best_per_comp: dict[int, list[float]] = {}
        R0 = 0
        for x, d, c in AM:
            if c is None:  # swallowed by gamma''K
                R0 = max(R0, min(d, max_d_M2))
            else:
                best_per_comp.setdefault(c, [0, 0])
                best_per_comp[c][0] = max(best_per_comp[c][0], d)
        for x, d, c in AM2:
            if c is None:
                R0 = max(R0, min(d, max_d_M))
            else:
                best_per_comp.setdefault(c, [0, 0])
                best_per_comp[c][1] = max(best_per_comp[c][1], d)
        for _, (dm, dm2) in best_per_comp.items():
            if dm > 0 and dm2 > 0:
                R0 = max(R0, min(dm, dm2))
        return R0, labels, gammaK

    for _ in range(edges_sampled):
        eid = rng.randrange(n_edges)
        result = split_analysis(eid)
        if result is None:
            report.not_applicable += 1
            continue
        R0, _, _ = result
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
        _, labels, _ = result
        report.details["probe_edges"] += 1
        vu, vw = tb.vertices[u], tb.vertices[w]
        pu = coset_elements_in_ball(fg, ball, vu.rep, vu.vtype, margin)
        pw = coset_elements_in_ball(fg, ball, vw.rep, vw.vtype, margin)
        for x in pu:
            for x2 in pw:
                cx, cx2 = labels.get(x), labels.get(x2)
                if cx is None or cx2 is None or cx == cx2:
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


def ends_estimate(gog: GraphOfGroups, sd: SpanningData, radii, margin: int = 3,
                  budget: int | None = None) -> EndsReport:
    """Count unbounded-looking complementary components of growing balls.

    For each n, the components of ball(n_max) minus ball(n) that touch the
    outer sphere and are at least n elements large; the verdict follows the
    stabilization pattern (0, 1, 2, or growing).
    """
    radii = tuple(sorted(radii))
    if not radii:
        raise ValueError("radii must be nonempty")
    fg = FundamentalGroup(gog, sd)
    n_max = radii[-1] + margin
    ball = fg.word_metric_ball(n_max, budget=budget)
    exhausted = ball.layer_sizes[-1] == 0

    counts = []
    sizes = {}
    outer = len(ball) - ball.layer_sizes[-1]  # position of the first outer-sphere element
    for n in radii:
        # the annulus is the ball minus its prefix ball(n)
        comps = r_components(ball, 1, excluded=ball.elements[:sum(ball.layer_sizes[:n + 1])])
        # noise floor: an unbounded component must span the annulus radially,
        # so anything smaller than the radial width is a transient crumb;
        # a component lists its elements in ball order, so its last one is outermost
        floor = max(1, n_max - n)
        kept = [c for c in comps if ball.index[c[-1]] >= outer and len(c) >= floor]
        counts.append(len(kept))
        sizes[n] = sorted((len(c) for c in kept), reverse=True)

    counts_t = tuple(counts)
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
