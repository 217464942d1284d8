"""Graphs of groups: underlying graph with edge involution, attached groups,
edge monomorphisms, spanning data, elementary collapses and the
non-elementarity decision.

Oriented edges are integers: the unoriented edge ``k`` carries orientations
``2k`` (forward, as written in the DSL) and ``2k+1`` (reverse), so
``bar(y) == y ^ 1``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .backends import Elem, GroupBackend
from .errors import (
    BudgetExceeded,
    EdgeIsLoop,
    EmbeddingNotInjective,
    GraphDisconnected,
    NotIsomorphism,
)
from .groups import EdgeEmbedding, FiniteGroup, check_monomorphism


def bar(y: int) -> int:
    return y ^ 1


@dataclass(frozen=True)
class Graph:
    """Finite graph with explicit edge involution; loops and parallel edges allowed."""

    vertex_names: tuple[str, ...]
    edge_names: tuple[str, ...]          # unoriented edge names
    alpha: tuple[int, ...]               # oriented edge -> initial vertex
    omega: tuple[int, ...]               # oriented edge -> final vertex

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_names)

    @property
    def n_edges(self) -> int:
        return len(self.edge_names)

    def oriented_edges(self) -> range:
        return range(2 * self.n_edges)

    def is_loop(self, y: int) -> bool:
        return self.alpha[y] == self.omega[y]

    def oriented_name(self, y: int) -> str:
        base = self.edge_names[y // 2]
        return base if y % 2 == 0 else f"~{base}"

    def incident_into(self, v: int) -> list[int]:
        """Oriented edges y with omega(y) == v, in id order."""
        return [y for y in self.oriented_edges() if self.omega[y] == v]


def build_graph(vertex_names: list[str], edges: list[tuple[str, str, str]]) -> Graph:
    """edges: (edge_name, left_vertex, right_vertex); orientation 2k runs left->right."""
    vidx = {name: i for i, name in enumerate(vertex_names)}
    alpha: list[int] = []
    omega: list[int] = []
    for _, a, b in edges:
        alpha += [vidx[a], vidx[b]]
        omega += [vidx[b], vidx[a]]
    return Graph(
        vertex_names=tuple(vertex_names),
        edge_names=tuple(name for name, _, _ in edges),
        alpha=tuple(alpha),
        omega=tuple(omega),
    )


class TrivialEmbedding:
    """The trivial group embedded into Z^n or F_n, onto the identity.

    Backends are torsion-free, so no other finite group embeds there, and
    every element is its own right-coset representative.
    """

    def __init__(self, edge_group: FiniteGroup, target: GroupBackend):
        if edge_group.order != 1:
            raise EmbeddingNotInjective(
                "only the trivial group embeds into a torsion-free backend"
            )
        self.edge_group = edge_group
        self.target = target
        self._e = edge_group.identity_index
        self._target_e = target.identity()

    def apply(self, h: int) -> Elem:
        return self._target_e

    def contains(self, g: Elem) -> bool:
        return g == self._target_e

    def preimage(self, g: Elem) -> int:
        return self._e

    def index_in_target(self) -> None:
        """The target is infinite."""
        return None

    def right_decompose(self, g: Elem) -> tuple[int, Elem]:
        return self._e, g


@dataclass(frozen=True)
class GraphOfGroups:
    graph: Graph
    vertex_groups: tuple[FiniteGroup | GroupBackend, ...]
    edge_groups: tuple[FiniteGroup, ...]          # per unoriented edge
    embeddings: tuple[EdgeEmbedding | TrivialEmbedding, ...]  # per oriented edge, into omega(y)
    generating_sets: tuple[tuple[tuple[str, Elem], ...], ...]  # per vertex: (label, elem)

    def edge_group(self, y: int) -> FiniteGroup:
        return self.edge_groups[y // 2]

    def embedding(self, y: int) -> EdgeEmbedding | TrivialEmbedding:
        return self.embeddings[y]

    @property
    def all_edge_groups_trivial(self) -> bool:
        return all(g.order == 1 for g in self.edge_groups)


@dataclass(frozen=True)
class SpanningData:
    """A BFS spanning tree plus the Bass-Serre orientation A."""

    root: int
    tree_edges: frozenset[int]        # unoriented ids
    orientation: frozenset[int]       # oriented ids, one per unoriented pair
    parent_edge: tuple[int, ...]      # per vertex: oriented tree edge into it (root: -1)

    def in_tree(self, y: int) -> bool:
        return (y // 2) in self.tree_edges

    def tree_path(self, g: Graph, v: int) -> list[int]:
        """Oriented tree edges from the root to v."""
        path: list[int] = []
        while v != self.root:
            y = self.parent_edge[v]
            path.append(y)
            v = g.alpha[y]
        path.reverse()
        return path


def spanning_tree(gog: GraphOfGroups) -> SpanningData:
    """BFS spanning tree from vertex 0, ties broken by edge id order.

    Orientation A: tree edges point away from the root; for non-tree pairs the
    lesser oriented id (the DSL forward orientation) is chosen.
    """
    g = gog.graph
    root = 0
    parent_edge = [-1] * g.n_vertices
    seen = {root}
    queue = deque([root])
    tree: set[int] = set()
    while queue:
        v = queue.popleft()
        for y in g.oriented_edges():
            if g.alpha[y] == v and g.omega[y] not in seen:
                w = g.omega[y]
                seen.add(w)
                parent_edge[w] = y
                tree.add(y // 2)
                queue.append(w)
    if len(seen) != g.n_vertices:
        raise GraphDisconnected("underlying graph is not connected")
    orientation: set[int] = set()
    for k in range(g.n_edges):
        if k in tree:
            fwd = 2 * k if parent_edge[g.omega[2 * k]] == 2 * k else 2 * k + 1
            orientation.add(fwd)
        else:
            orientation.add(2 * k)
    return SpanningData(
        root=root,
        tree_edges=frozenset(tree),
        orientation=frozenset(orientation),
        parent_edge=tuple(parent_edge),
    )


def elementary_collapse(gog: GraphOfGroups, edge_name: str) -> GraphOfGroups:
    """Contract the non-loop oriented edge y named ``e`` or ``~e`` (the
    reverse orientation), when its embedding i_y is an isomorphism.

    The collapsed vertex keeps the alpha(y)-side group; embeddings formerly
    landing in G_{omega(y)} are transported by i_{bar y} o i_y^{-1}.
    """
    g = gog.graph
    base = edge_name.removeprefix("~")
    if base not in g.edge_names:
        raise ValueError(f"no edge {edge_name!r}; the edges are "
                         f"{', '.join(g.edge_names) or 'none'}, and ~NAME their reverses")
    k = g.edge_names.index(base)
    y = 2 * k + (base != edge_name)
    if g.is_loop(y):
        raise EdgeIsLoop(f"edge {edge_name} is a loop")
    emb_fwd = gog.embedding(y)
    if emb_fwd.index_in_target() != 1:
        raise NotIsomorphism(
            f"i_{edge_name} is not an isomorphism onto the vertex group of "
            f"{g.vertex_names[g.omega[y]]}"
        )

    va, vo = g.alpha[y], g.omega[y]
    # transport G_{omega(y)} -> G_{alpha(y)}
    emb_bwd = gog.embedding(bar(y))

    def transport(elem: int) -> Elem:
        return emb_bwd.apply(emb_fwd.preimage(elem))

    keep_vertices = [v for v in range(g.n_vertices) if v != vo]
    new_names = [g.vertex_names[v] for v in keep_vertices]
    remap = {v: i for i, v in enumerate(keep_vertices)}
    remap[vo] = remap[va]

    new_edges: list[tuple[str, str, str]] = []
    kept_unoriented: list[int] = []
    for j in range(g.n_edges):
        if j == k:
            continue
        kept_unoriented.append(j)
        a, b = g.alpha[2 * j], g.omega[2 * j]
        new_edges.append((g.edge_names[j], new_names[remap[a]], new_names[remap[b]]))
    new_graph = build_graph(new_names, new_edges)

    new_vgroups = tuple(gog.vertex_groups[v] for v in keep_vertices)
    new_egroups = tuple(gog.edge_groups[j] for j in kept_unoriented)

    new_embs: list[EdgeEmbedding | TrivialEmbedding] = []
    for j in kept_unoriented:
        for orient in (2 * j, 2 * j + 1):
            old = gog.embedding(orient)
            if gog.graph.omega[orient] == vo:
                # post-compose with the transport into G_{alpha(y)}
                tgt = gog.vertex_groups[va]
                if tgt.is_finite:
                    mapped = tuple(transport(old.apply(h))
                                   for h in old.edge_group.elements())
                    new_embs.append(check_monomorphism(old.edge_group, tgt, mapped))
                else:
                    new_embs.append(TrivialEmbedding(old.edge_group, tgt))
            else:
                new_embs.append(old)

    new_gens = tuple(gog.generating_sets[v] for v in keep_vertices)
    return GraphOfGroups(
        graph=new_graph,
        vertex_groups=new_vgroups,
        edge_groups=new_egroups,
        embeddings=tuple(new_embs),
        generating_sets=new_gens,
    )


# --- non-elementarity -------------------------------------------------------

# graphs of groups the collapse search may find irreducible before it stops
COLLAPSE_BUDGET = 20_000


@dataclass(frozen=True)
class Elementarity:
    """The non-elementarity decision: ``NonElementary``, ``SimplyElementary``
    in its ``case``, or ``ReducesTo`` that case by the collapse ``sequence``."""

    verdict: str
    case: int | None = None
    sequence: tuple[str, ...] = ()


def _simply_elementary_case(gog: GraphOfGroups) -> int | None:
    g = gog.graph
    if g.n_vertices == 1 and g.n_edges == 0:
        return 1
    if g.n_vertices == 2 and g.n_edges == 1 and not g.is_loop(0):
        if gog.embedding(0).index_in_target() == 2 and gog.embedding(1).index_in_target() == 2:
            return 2
    if g.n_vertices == 1 and g.n_edges == 1 and g.is_loop(0):
        fwd, bwd = gog.embedding(0), gog.embedding(1)
        if fwd.index_in_target() == 1 and bwd.index_in_target() == 1:
            return 3
    return None


def _collapsible_edges(gog: GraphOfGroups) -> list[str]:
    g = gog.graph
    out = []
    for k in range(g.n_edges):
        for y in (2 * k, 2 * k + 1):
            if g.is_loop(y):
                continue
            if gog.embedding(y).index_in_target() == 1:
                out.append(g.oriented_name(y))
    return out


def is_non_elementary(gog: GraphOfGroups) -> Elementarity:
    """Decide non-elementarity by a depth-first search over collapse sequences.

    Each collapse removes an edge, so the search tree has depth <= |edges|.
    A collapse contracts an edge along an isomorphism, so the graph of groups
    it leaves depends, up to isomorphism, only on which edges remain: the
    merged vertices are the components of the collapsed edges.  A set of
    remaining edges that failed to reduce is skipped when another order
    reaches it, so k collapsible edges cost at most 2^k states instead of k!
    orders, and the first sequence found is the one the unmemoised search
    finds.  More than COLLAPSE_BUDGET failed states raise BudgetExceeded.
    The verdict is NonElementary, SimplyElementary (with its case), or
    ReducesTo (with its case and collapse sequence).
    """
    case = _simply_elementary_case(gog)
    if case is not None:
        return Elementarity("SimplyElementary", case)
    failed: set[frozenset[str]] = set()

    def search(current: GraphOfGroups) -> tuple[int, tuple[str, ...]] | None:
        for name in _collapsible_edges(current):
            remaining = frozenset(current.graph.edge_names) - {name.removeprefix("~")}
            if remaining in failed:
                continue
            collapsed = elementary_collapse(current, name)
            c = _simply_elementary_case(collapsed)
            if c is not None:
                return c, (name,)
            deeper = search(collapsed)
            if deeper is not None:
                c2, seq = deeper
                return c2, (name,) + seq
            failed.add(remaining)
            if len(failed) > COLLAPSE_BUDGET:
                raise BudgetExceeded(COLLAPSE_BUDGET, "collapse search",
                                     f"collapse search: more than {COLLAPSE_BUDGET} "
                                     f"states fail to reduce")
        return None

    found = search(gog)
    if found is None:
        return Elementarity("NonElementary")
    return Elementarity("ReducesTo", *found)
