"""The fundamental group of a graph of groups: normal forms, word problem,
presentation emission, the generating set S, and the word metric d_S.

Elements are alternating words anchored at the spanning-tree root v0::

    g0 * t_{e1} * g1 * t_{e2} * ... * t_{en} * gn

where (e1, ..., en) is an edge loop at v0 in Y, gi lies in the vertex group
at omega(ei), t_e is the stable letter for non-tree edges and 1 for tree
edges (kept in the word structure either way).  A word is canonical when it
is Britton-reduced (no subword t_e g t_{bar e} with g in the embedded edge
group) and every gi with i >= 1 is the designated right-coset representative
of im(i_{ei}) in its vertex group.  Canonical words represent group elements
uniquely, so equality is literal comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from .backends import Elem, GroupBackend, reduce_free_word
from .errors import BaseMismatch, BudgetExceeded
from .gog import GraphOfGroups, SpanningData, bar
from .groups import bfs

DEFAULT_BALL_BUDGET = 2_000_000


class NormalForm:
    """Canonical reduced alternating word; immutable and hashable."""

    __slots__ = ("group", "g0", "tail", "_hash")

    def __init__(self, group: "FundamentalGroup", g0: Elem, tail: tuple):
        self.group = group
        self.g0 = g0
        self.tail = tail
        self._hash = hash((g0, tail))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NormalForm)
            and self.g0 == other.g0
            and self.tail == other.tail
        )

    def __hash__(self) -> int:
        return self._hash

    def __mul__(self, other: "NormalForm") -> "NormalForm":
        return self.group.multiply(self, other)

    def __invert__(self) -> "NormalForm":
        return self.group.invert(self)

    @property
    def syllable_length(self) -> int:
        return len(self.tail)

    def is_identity(self) -> bool:
        return not self.tail and self.group.root_group.is_identity(self.g0)

    def sort_key(self):
        fg = self.group
        parts = [len(self.tail)]
        for e, g in self.tail:
            parts.append((e,) + tuple(fg.vertex_backend(fg.gog.graph.omega[e]).sort_key(g)))
        parts.append(tuple(fg.root_group.sort_key(self.g0)))
        return tuple(parts)

    def display(self) -> str:
        fg = self.group
        g = fg.gog.graph
        parts = []
        if not fg.root_group.is_identity(self.g0) or not self.tail:
            parts.append(fg.root_group.label(self.g0))
        for e, elem in self.tail:
            backend = fg.vertex_backend(g.omega[e])
            piece = f"[{g.oriented_name(e)}]"
            if not backend.is_identity(elem):
                piece += backend.label(elem)
            parts.append(piece)
        return "·".join(parts) if parts else "e"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<nf {self.display()}>"


@dataclass(frozen=True)
class GeneratingSet:
    """S = union of the S_v plus one stable letter per non-tree edge pair."""

    labels: tuple[str, ...]
    elements: tuple[NormalForm, ...]
    # closed under formal inversion: metric steps carry their own labels
    step_labels: tuple[str, ...]
    steps: tuple[NormalForm, ...]


class FundamentalGroup:
    """Exact arithmetic in pi_1(G, Y, T), anchored at the spanning-tree root."""

    def __init__(self, gog: GraphOfGroups, sd: SpanningData,
                 ball_budget: int = DEFAULT_BALL_BUDGET):
        self.gog = gog
        self.sd = sd
        self.root = sd.root
        self.ball_budget = ball_budget
        g = gog.graph

        self._identity = NormalForm(self, self.vertex_backend(self.root).identity(), ())
        self._letter_cache: dict[int, NormalForm] = {}
        self._vertex_subgroup_cache: dict[int, frozenset[NormalForm]] = {}
        self._edge_subgroup_cache: dict[int, tuple[NormalForm, ...]] = {}
        self._tree_paths = {v: tuple(sd.tree_path(g, v)) for v in range(g.n_vertices)}

        # word metric support
        self._genset: GeneratingSet | None = None
        self._len_cache: dict[NormalForm, int] = {}
        self._len_walk = None
        self._fast_metric = gog.all_edge_groups_trivial
        self._finite_len_tables: dict[int, dict[int, int]] = {}
        self._ball_cache: dict[int, object] = {}

    # --- vertex group access -------------------------------------------------

    @property
    def root_group(self) -> GroupBackend:
        return self.gog.vertex_group(self.root)

    def vertex_backend(self, v: int) -> GroupBackend:
        return self.gog.vertex_group(v)

    def identity(self) -> NormalForm:
        return self._identity

    # --- construction of elements ---------------------------------------------

    def _make(self, g0: Elem, tail) -> NormalForm:
        return NormalForm(self, g0, tuple(tail))

    def normalize(self, g0: Elem, tail) -> NormalForm:
        """Britton-reduce, then convert to canonical transversal reps."""
        gog, g = self.gog, self.gog.graph
        tail = list(tail)

        i = 0
        while i + 1 < len(tail):
            e1, g1 = tail[i]
            e2, g2 = tail[i + 1]
            emb = gog.embedding(e1)
            if e2 == bar(e1) and emb.contains(g1):
                h = emb.preimage(g1)
                x = gog.embedding(bar(e1)).apply(h)
                merged = self.vertex_backend(g.omega[e2]).mul(x, g2)
                if i == 0:
                    g0 = self.root_group.mul(g0, merged)
                else:
                    ep, gp = tail[i - 1]
                    tail[i - 1] = (ep, self.vertex_backend(g.omega[ep]).mul(gp, merged))
                del tail[i:i + 2]
                i = max(i - 1, 0)
            else:
                i += 1

        for i in range(len(tail) - 1, -1, -1):
            e, gi = tail[i]
            emb = gog.embedding(e)
            h, r = emb.right_decompose(gi)
            if h != emb.edge_group.identity_index:
                x = gog.embedding(bar(e)).apply(h)
                if i == 0:
                    g0 = self.root_group.mul(g0, x)
                else:
                    ep, gp = tail[i - 1]
                    tail[i - 1] = (ep, self.vertex_backend(g.omega[ep]).mul(gp, x))
            tail[i] = (e, r)

        return self._make(g0, tail)

    def vertex_element(self, v: int, elem: Elem) -> NormalForm:
        """The element of G_v < Gamma, written as a loop word at the root."""
        backend = self.vertex_backend(v)
        if v == self.root:
            return self._make(elem, ())
        g = self.gog.graph
        path = self._tree_paths[v]
        tail = [(e, self.vertex_backend(g.omega[e]).identity()) for e in path]
        tail[-1] = (path[-1], elem)
        back = [(bar(e), self.vertex_backend(g.omega[bar(e)]).identity())
                for e in reversed(path)]
        return self.normalize(self.root_group.identity(), tail + back)

    def letter(self, y: int) -> NormalForm:
        """The stable-letter element t_y for a non-tree oriented edge y."""
        if y in self._letter_cache:
            return self._letter_cache[y]
        if self.sd.in_tree(y):
            raise ValueError(f"edge {self.gog.graph.oriented_name(y)} is a tree edge")
        g = self.gog.graph
        out = [(e, self.vertex_backend(g.omega[e]).identity())
               for e in self._tree_paths[g.alpha[y]]]
        mid = [(y, self.vertex_backend(g.omega[y]).identity())]
        back = [(bar(e), self.vertex_backend(g.omega[bar(e)]).identity())
                for e in reversed(self._tree_paths[g.omega[y]])]
        nf = self.normalize(self.root_group.identity(), out + mid + back)
        self._letter_cache[y] = nf
        return nf

    # --- group law -------------------------------------------------------------

    def multiply(self, x: NormalForm, y: NormalForm) -> NormalForm:
        if x.group is not y.group:
            raise BaseMismatch("operands anchored at different base structures")
        if not x.tail:
            return self.normalize(self.root_group.mul(x.g0, y.g0), y.tail)
        en, gn = x.tail[-1]
        merged = self.vertex_backend(self.gog.graph.omega[en]).mul(gn, y.g0)
        return self.normalize(x.g0, x.tail[:-1] + ((en, merged),) + y.tail)

    def invert(self, x: NormalForm) -> NormalForm:
        if not x.tail:
            return self._make(self.root_group.inv(x.g0), ())
        g = self.gog.graph
        elems = [x.g0] + [gi for _, gi in x.tail]
        edges = [e for e, _ in x.tail]
        new_g0 = self.vertex_backend(self.root).inv(elems[-1])
        tail = []
        for i in range(len(edges) - 1, -1, -1):
            e = bar(edges[i])
            prev = elems[i]
            tail.append((e, self.vertex_backend(g.omega[e]).inv(prev)))
        return self.normalize(new_g0, tail)

    # --- subgroup membership ----------------------------------------------------

    def vertex_subgroup_elements(self, v: int) -> frozenset[NormalForm]:
        """Canonical forms of all of G_v (finite vertex groups only)."""
        if v not in self._vertex_subgroup_cache:
            backend = self.vertex_backend(v)
            assert backend.is_finite
            self._vertex_subgroup_cache[v] = frozenset(
                self.vertex_element(v, e) for e in backend.finite.elements()
            )
        return self._vertex_subgroup_cache[v]

    def in_vertex_subgroup(self, x: NormalForm, v: int) -> bool:
        """Decide x in G_v, where G_v < Gamma sits at the spanning-tree anchor."""
        backend = self.vertex_backend(v)
        if v == self.root:
            return not x.tail
        if backend.is_finite:
            return x in self.vertex_subgroup_elements(v)
        if x.is_identity():
            return True
        path = self._tree_paths[v]
        k = len(path)
        if len(x.tail) != 2 * k:
            return False
        expected = tuple(path) + tuple(bar(e) for e in reversed(path))
        if tuple(e for e, _ in x.tail) != expected:
            return False
        candidate = x.tail[k - 1][1]
        return x == self.vertex_element(v, candidate)

    def edge_subgroup_elements(self, k: int) -> tuple[NormalForm, ...]:
        """Canonical forms of the (finite) edge subgroup of pair k, via its
        anchor i_{y-hat} at the non-A orientation."""
        if k not in self._edge_subgroup_cache:
            yhat = self.edge_anchor_orientation(k)
            emb = self.gog.embedding(yhat)
            v = self.gog.graph.omega[yhat]
            elems = tuple(
                self.vertex_element(v, emb.apply(h))
                for h in self.gog.edge_group(2 * k).elements()
            )
            self._edge_subgroup_cache[k] = elems
        return self._edge_subgroup_cache[k]

    def edge_anchor_orientation(self, k: int) -> int:
        """y-hat: the orientation of pair k that is NOT in A."""
        return 2 * k + 1 if 2 * k in self.sd.orientation else 2 * k

    def coset_membership(self, x: NormalForm, v: int, gamma: NormalForm) -> bool:
        """True iff gamma^-1 x lies in the embedded copy of G_v."""
        return self.in_vertex_subgroup(self.multiply(self.invert(gamma), x), v)

    # --- generating set and word metric ------------------------------------------

    def generating_set(self) -> GeneratingSet:
        if self._genset is not None:
            return self._genset
        g = self.gog.graph
        labels: list[str] = []
        elements: list[NormalForm] = []
        raw: list[tuple[str, NormalForm]] = []
        seen_labels: set[str] = set()
        for v in range(g.n_vertices):
            for lbl, elem in self.gog.generating_sets[v]:
                name = lbl if lbl not in seen_labels else f"{g.vertex_names[v]}.{lbl}"
                seen_labels.add(name)
                raw.append((name, self.vertex_element(v, elem)))
        for k in range(g.n_edges):
            if k in self.sd.tree_edges:
                continue
            y = 2 * k if 2 * k in self.sd.orientation else 2 * k + 1
            name = f"s_{g.edge_names[k]}"
            raw.append((name, self.letter(y)))
        for name, nf in raw:
            labels.append(name)
            elements.append(nf)
        # close under formal inversion for the metric
        step_map: dict[NormalForm, str] = {}
        for name, nf in raw:
            if nf not in step_map and not nf.is_identity():
                step_map[nf] = name
        for name, nf in raw:
            inv = self.invert(nf)
            if inv not in step_map and not inv.is_identity():
                step_map[inv] = f"{name}^-1"
        steps = tuple(step_map.keys())
        self._genset = GeneratingSet(
            labels=tuple(labels),
            elements=tuple(elements),
            step_labels=tuple(step_map.values()),
            steps=steps,
        )
        return self._genset

    def _finite_len_table(self, v: int) -> dict[int, int]:
        """BFS word lengths inside a finite vertex group over S_v and inverses."""
        if v not in self._finite_len_tables:
            G = self.vertex_backend(v).finite
            steps = {s for _, elem in self.gog.generating_sets[v] for s in (elem, G.inv(elem))}
            table: dict[int, int] = {}
            for _ in bfs(G.identity_index, tuple(steps), G.mul, table):
                pass
            self._finite_len_tables[v] = table
        return self._finite_len_tables[v]

    def _syllable_length_sum(self, x: NormalForm) -> int:
        g = self.gog.graph
        total = 0
        backend = self.root_group
        total += (self._finite_len_table(self.root)[x.g0] if backend.is_finite
                  else backend.gen_length(x.g0))
        for e, gi in x.tail:
            if not self.sd.in_tree(e):
                total += 1
            v = g.omega[e]
            b = self.vertex_backend(v)
            total += self._finite_len_table(v)[gi] if b.is_finite else b.gen_length(gi)
        return total

    def wordlen(self, x: NormalForm) -> int:
        """Exact d_S(1, x).

        With trivial edge groups (free products, free factors), the syllable
        sum over canonical forms is the exact word length; otherwise fall back
        to a lazily extended global BFS.
        """
        if self._fast_metric:
            return self._syllable_length_sum(x)
        if self._len_walk is None:
            self._len_cache = {}
            self._len_walk = bfs(self._identity, self.generating_set().steps, self.multiply,
                                 self._len_cache, budget=self.ball_budget, walk="wordlen")
        while x not in self._len_cache:
            try:
                next(self._len_walk)
            except StopIteration:
                raise BudgetExceeded(self.ball_budget, "wordlen",
                                     "element unreachable: S does not generate?") from None
            except BudgetExceeded:
                self._len_walk = None  # a generator that raised is closed: restart next call
                raise
        return self._len_cache[x]

    def dist(self, x: NormalForm, y: NormalForm) -> int:
        return self.wordlen(self.multiply(self.invert(x), y))

    def word_metric_ball(self, radius: int, budget: int | None = None):
        """Exact radius-n ball around the identity, as an indexed graph.

        Returns a :class:`amalgam_lab.separation.CayleyBall` whose elements
        are in BFS discovery order, layer by layer.
        """
        from .separation import CayleyBall

        if budget is None and radius in self._ball_cache:
            return self._ball_cache[radius]
        use_default_budget = budget is None
        budget = budget if budget is not None else self.ball_budget
        gs = self.generating_set()
        order = sorted(range(len(gs.steps)), key=lambda i: gs.step_labels[i])
        steps = [gs.steps[i] for i in order]
        depth: dict[NormalForm, int] = {}
        for _ in bfs(self._identity, steps, self.multiply, depth, radius, budget, "Cayley ball"):
            pass
        layers = [0] * (radius + 1)
        for r in depth.values():
            layers[r] += 1
        # the walk discovers the ball layer by layer, so the depths now follow
        # from layer_sizes and the walk's own dict becomes the position index
        for i, x in enumerate(depth):
            depth[x] = i
        ball = CayleyBall(group=self, radius=radius, elements=tuple(depth),
                          index=depth, layer_sizes=tuple(layers))
        if use_default_budget:
            self._ball_cache[radius] = ball
        return ball

    def evaluate_word(self, labels) -> NormalForm:
        """Multiply out a word given as generator labels (with ^-1 suffixes)."""
        gs = self.generating_set()
        table = dict(zip(gs.labels, gs.elements))
        for lbl, nf in zip(gs.labels, gs.elements):
            table.setdefault(f"{lbl}^-1", self.invert(nf))
        out = self._identity
        for lbl in labels:
            if lbl not in table:
                raise KeyError(f"unknown generator label {lbl!r}")
            out = self.multiply(out, table[lbl])
        return out


# --- presentation ------------------------------------------------------------


@dataclass(frozen=True)
class Presentation:
    """Generators and relators of pi_1(G, Y, T).

    Relators are freely reduced words over signed 1-based generator indices.
    One stable letter is emitted per non-tree edge pair (its reverse letter is
    the formal inverse, which absorbs the s_y s_{bar y} relator family).
    """

    generators: tuple[str, ...]
    relators: tuple[tuple[int, ...], ...]

    def relator_strings(self) -> list[str]:
        out = []
        for rel in self.relators:
            parts = []
            for l in rel:
                name = self.generators[abs(l) - 1]
                parts.append(name if l > 0 else f"{name}^-1")
            out.append("*".join(parts))
        return out


def emit_presentation(gog: GraphOfGroups, sd: SpanningData) -> Presentation:
    """Instantiate the defining presentation over the generating set S.

    Relator families: vertex-group relators (Cayley-style for table groups,
    commutators for Z^n, none for F_n), i_y(g)^-1 i_{bar y}(g) for tree edges,
    and i_y(g)^-1 s_y^-1 i_{bar y}(g) s_y for non-tree edges.
    """
    g = gog.graph
    gens: list[str] = []
    seen: set[str] = set()
    vgen_index: dict[tuple[int, Elem], int] = {}
    vgen_range: dict[int, list[tuple[int, Elem]]] = {}
    for v in range(g.n_vertices):
        vgen_range[v] = []
        for lbl, elem in gog.generating_sets[v]:
            name = lbl if lbl not in seen else f"{g.vertex_names[v]}.{lbl}"
            seen.add(name)
            gens.append(name)
            vgen_index[(v, elem)] = len(gens)
            vgen_range[v].append((len(gens), elem))
    stable_index: dict[int, int] = {}
    for k in range(g.n_edges):
        if k in sd.tree_edges:
            continue
        gens.append(f"s_{g.edge_names[k]}")
        stable_index[k] = len(gens)

    word_maps: dict[int, dict[Elem, tuple[int, ...]]] = {}
    for v in range(g.n_vertices):
        backend = gog.vertex_group(v)
        if backend.is_finite:
            G = backend.finite
            step_ids = [sgid for gi, _ in vgen_range[v] for sgid in (gi, -gi)]
            steps = [s for _, elem in vgen_range[v] for s in (elem, G.inv(elem))]
            words = {G.identity_index: ()}
            for b, a, i in bfs(G.identity_index, steps, G.mul, {}):
                words[b] = words[a] + (step_ids[i],)
            word_maps[v] = words

    def vertex_word(v: int, elem: Elem) -> tuple[int, ...]:
        backend = gog.vertex_group(v)
        if backend.is_finite:
            return word_maps[v][elem]
        word: list[int] = []
        if backend.kind == "free_abelian":
            for i, c in enumerate(elem):
                gid = vgen_range[v][i][0]
                word.extend([gid if c > 0 else -gid] * abs(c))
        else:
            for l in elem:
                gid = vgen_range[v][abs(l) - 1][0]
                word.append(gid if l > 0 else -gid)
        return tuple(word)

    relators: dict[tuple[int, ...], None] = {}

    def add(word: list[int]):
        red = reduce_free_word(word)
        if red:
            relators.setdefault(red, None)

    for v in range(g.n_vertices):
        backend = gog.vertex_group(v)
        if backend.is_finite:
            G = backend.finite
            for a in G.elements():
                for gid, selem in vgen_range[v]:
                    b = G.mul(a, selem)
                    add(list(word_maps[v][a]) + [gid] + [-l for l in reversed(word_maps[v][b])])
        elif backend.kind == "free_abelian":
            ids = [gid for gid, _ in vgen_range[v]]
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    add([ids[i], ids[j], -ids[i], -ids[j]])

    for k in range(g.n_edges):
        y = 2 * k
        eg = gog.edge_group(y)
        emb_fwd = gog.embedding(y)
        emb_bwd = gog.embedding(bar(y))
        for h in eg.elements():
            if h == eg.identity_index:
                continue
            w_fwd = vertex_word(g.omega[y], emb_fwd.apply(h))
            w_bwd = vertex_word(g.omega[bar(y)], emb_bwd.apply(h))
            if k in sd.tree_edges:
                add([-l for l in reversed(w_fwd)] + list(w_bwd))
            else:
                s = stable_index[k]
                add([-l for l in reversed(w_fwd)] + [-s] + list(w_bwd) + [s])

    return Presentation(generators=tuple(gens), relators=tuple(relators.keys()))


def abelianization(p: Presentation) -> tuple[int, tuple[int, ...]]:
    """(free rank, invariant factors > 1) of the abelianized presentation,
    computed by Smith normal form of the relator exponent matrix."""
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form

    n = len(p.generators)
    if not p.relators:
        return n, ()
    rows = []
    for rel in p.relators:
        row = [0] * n
        for l in rel:
            row[abs(l) - 1] += 1 if l > 0 else -1
        rows.append(row)
    m = Matrix(rows)
    snf = smith_normal_form(m)
    diag = [abs(int(snf[i, i])) for i in range(min(snf.shape))]
    nonzero = [d for d in diag if d != 0]
    torsion = tuple(sorted(d for d in nonzero if d > 1))
    return n - len(nonzero), torsion
