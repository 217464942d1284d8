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

A product x·y is computed by :meth:`FundamentalGroup.multiply`.  Both operands
are canonical, so only the junction of x and y can cancel, and the product
touches only the syllables that cancel there and the one that merges after
them.  With finite edge groups that merged syllable may also hand an edge-group
element leftward; the sweep that carries it stops at the first syllable where
the carry becomes trivial.  :meth:`FundamentalGroup.normalize` sweeps a whole
word; it builds vertex elements and stable letters and is the test oracle.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .backends import FREE_ABELIAN, Elem, GroupBackend, reduce_free_word
from .errors import BaseMismatch, BudgetExceeded
from .gog import GraphOfGroups, SpanningData, bar
from .groups import UNSET, FiniteGroup, bfs, fill_table

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
        groups, omega = fg.gog.vertex_groups, fg.gog.graph.omega
        parts = [len(self.tail)]
        for e, g in self.tail:
            parts.append((e,) + tuple(groups[omega[e]].sort_key(g)))
        parts.append(tuple(fg.root_group.sort_key(self.g0)))
        return tuple(parts)

    def display(self) -> str:
        fg = self.group
        g = fg.gog.graph
        parts = []
        if not fg.root_group.is_identity(self.g0) or not self.tail:
            parts.append(fg.root_group.label(self.g0))
        for e, elem in self.tail:
            backend = fg.gog.vertex_groups[g.omega[e]]
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
        self.root_group: FiniteGroup | GroupBackend = gog.vertex_groups[sd.root]
        self.ball_budget = ball_budget
        g = gog.graph

        self._identity = NormalForm(self, self.root_group.identity(), ())
        self._letter_cache: dict[int, NormalForm] = {}
        self._vertex_subgroup_cache: dict[int, frozenset[NormalForm]] = {}
        self._edge_subgroup_cache: dict[int, tuple[NormalForm, ...]] = {}
        self._tree_paths = {v: tuple(sd.tree_path(g, v)) for v in range(g.n_vertices)}

        # word metric support
        self._genset: GeneratingSet | None = None
        self._len_cache: dict[NormalForm, int] = {}
        self._len_walk = None
        self._fast_metric = gog.all_edge_groups_trivial
        self._lengths: tuple[tuple, tuple] | None = None
        self._bipartite: bool | None = None
        self._ball_cache: dict[int, object] = {}

    def identity(self) -> NormalForm:
        return self._identity

    # --- construction of elements ---------------------------------------------

    def _make(self, g0: Elem, tail) -> NormalForm:
        return NormalForm(self, g0, tuple(tail))

    def normalize(self, g0: Elem, tail) -> NormalForm:
        """Britton-reduce, then convert to canonical transversal reps."""
        g0, tail = self._britton_reduce(g0, list(tail))
        return self._canonicalize(g0, tail)

    def _britton_reduce(self, g0: Elem, tail: list) -> tuple[Elem, list]:
        """Remove every pinch t_e i_e(h) t_{bar e} -> i_{bar e}(h), in place."""
        gog, groups, omega = self.gog, self.gog.vertex_groups, self.gog.graph.omega
        i = 0
        while i + 1 < len(tail):
            e1, g1 = tail[i]
            e2, g2 = tail[i + 1]
            emb = gog.embedding(e1)
            if e2 == bar(e1) and emb.contains(g1):
                h = emb.preimage(g1)
                x = gog.embedding(bar(e1)).apply(h)
                merged = groups[omega[e2]].mul(x, g2)
                if i == 0:
                    g0 = self.root_group.mul(g0, merged)
                else:
                    ep, gp = tail[i - 1]
                    tail[i - 1] = (ep, groups[omega[ep]].mul(gp, merged))
                del tail[i:i + 2]
                i = max(i - 1, 0)
            else:
                i += 1
        return g0, tail

    def _canonicalize(self, g0: Elem, tail: list) -> NormalForm:
        """Sweep a reduced word backward: write each syllable as i_e(h)·r with
        r its right-coset representative, keep r, and move i_{bar e}(h) into
        the syllable before it (t_e i_e(h) = i_{bar e}(h) t_e)."""
        gog, groups, omega = self.gog, self.gog.vertex_groups, self.gog.graph.omega
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
                    tail[i - 1] = (ep, groups[omega[ep]].mul(gp, x))
            tail[i] = (e, r)
        return self._make(g0, tail)

    def _trivial_syllables(self, edges) -> list:
        """The syllable (e, 1) for each oriented edge e of ``edges``."""
        groups, omega = self.gog.vertex_groups, self.gog.graph.omega
        return [(e, groups[omega[e]].identity()) for e in edges]

    def vertex_element(self, v: int, elem: Elem) -> NormalForm:
        """The element of G_v < Gamma, written as a loop word at the root."""
        if v == self.root:
            return self._make(elem, ())
        path = self._tree_paths[v]
        tail = self._trivial_syllables([*path, *map(bar, reversed(path))])
        tail[len(path) - 1] = (path[-1], elem)
        return self.normalize(self.root_group.identity(), tail)

    def letter(self, y: int) -> NormalForm:
        """The stable-letter element t_y for a non-tree oriented edge y."""
        if y in self._letter_cache:
            return self._letter_cache[y]
        if self.sd.in_tree(y):
            raise ValueError(f"edge {self.gog.graph.oriented_name(y)} is a tree edge")
        g = self.gog.graph
        back = map(bar, reversed(self._tree_paths[g.omega[y]]))
        tail = self._trivial_syllables([*self._tree_paths[g.alpha[y]], y, *back])
        nf = self.normalize(self.root_group.identity(), tail)
        self._letter_cache[y] = nf
        return nf

    # --- group law -------------------------------------------------------------

    def multiply(self, x: NormalForm, y: NormalForm) -> NormalForm:
        """The canonical form of x·y.

        When every edge group is trivial, only the junction of x and y is
        touched.  Membership of g in an embedded edge group then means g = 1,
        and every vertex element is its own coset representative.  Both
        operands are Britton-reduced and canonical, so the only pinch the
        concatenation can hold is t_e·1·t_{bar e} across the junction, and
        removing it makes a new junction one letter further in on each side.
        So the loop merges x's last syllable with y's next element, drops both
        letters while the merged element is 1 and y's next edge is bar of
        x's last, and carries y's following element leftward.  The first
        junction that does not pinch ends it.  No element ever moves left past
        it, because there is no edge-group part to move, so every other
        syllable of x and y stays as it is.  The cost is linear in the number
        of cancelled letters, not in the length of the word.

        With a non-trivial edge group the junction pinches when x's last edge
        is e, y's next is bar e, and the merged element lies in im(i_e).  Then
        t_e i_e(h) t_{bar e} = i_{bar e}(h), which joins y's following element,
        and the loop goes one letter further in on each side.  At the first
        junction that does not pinch, the merged syllable is split as
        i_e(h)·r with r its right-coset representative, and i_{bar e}(h) moves
        into the syllable before it, which is split the same way, and so on
        leftward.  The sweep stops once the carried h is the identity, since
        the syllables further left are already canonical, or at g0.  This
        push creates no pinch: a pinch at syllable g of x needs the pushed
        element to lie in the same image im(i), and g·i(h) lies in im(i)
        exactly when g does.  y's suffix after the junction is left as it is,
        reduced and canonical.  So the cost is the cancelled letters plus the
        syllables the carry passes, not the length of the word.
        """
        if x.group is not y.group:
            raise BaseMismatch("operands anchored at different base structures")
        groups, omega, xt, yt = self.gog.vertex_groups, self.gog.graph.omega, x.tail, y.tail
        if self._fast_metric:
            carry, n, k = y.g0, len(xt), 0
            while n:
                en, gn = xt[n - 1]
                backend = groups[omega[en]]
                merged = backend.mul(gn, carry)
                if k == len(yt) or yt[k][0] != bar(en) or not backend.is_identity(merged):
                    return NormalForm(self, x.g0, xt[:n - 1] + ((en, merged),) + yt[k:])
                carry = yt[k][1]
                n -= 1
                k += 1
            return NormalForm(self, self.root_group.mul(x.g0, carry), yt[k:])
        embeddings = self.gog.embeddings
        carry, n, k = y.g0, len(xt), 0
        while n:
            en, gn = xt[n - 1]
            merged = groups[omega[en]].mul(gn, carry)
            emb = embeddings[en]
            if k == len(yt) or yt[k][0] != bar(en) or not emb.contains(merged):
                break
            f, yk = yt[k]
            carry = groups[omega[f]].mul(embeddings[f].apply(emb.preimage(merged)), yk)
            n -= 1
            k += 1
        else:
            return NormalForm(self, self.root_group.mul(x.g0, carry), yt[k:])
        h, r = emb.right_decompose(merged)
        head = list(xt[:n])
        head[-1] = (en, r)
        i, g0 = n - 1, x.g0
        while h != emb.edge_group.identity_index:
            pushed = embeddings[bar(head[i][0])].apply(h)
            if i == 0:
                g0 = self.root_group.mul(g0, pushed)
                break
            i -= 1
            e, gi = head[i]
            emb = embeddings[e]
            h, r = emb.right_decompose(groups[omega[e]].mul(gi, pushed))
            head[i] = (e, r)
        return NormalForm(self, g0, tuple(head) + yt[k:])

    def invert(self, x: NormalForm) -> NormalForm:
        """x^-1, canonicalised without a Britton pass.

        x = g0 t_{e1} g1 ... t_{en} gn gives x^-1 = gn^-1 t_{bar en} ...
        t_{bar e1} g0^-1.  The inverse of a reduced word is reduced: its
        syllable g_j^-1 sits between t_{bar e_{j+1}} and t_{bar e_j}, so it
        pinches when e_j = bar e_{j+1} and g_j^-1 lies in im(i_{bar e_{j+1}}) =
        im(i_{e_j}), which is exactly when g_j pinches in x.  So only the
        canonicalising sweep of :meth:`normalize` runs.
        """
        if not x.tail:
            return self._make(self.root_group.inv(x.g0), ())
        groups, omega = self.gog.vertex_groups, self.gog.graph.omega
        elems = [x.g0] + [gi for _, gi in x.tail]
        edges = [e for e, _ in x.tail]
        new_g0 = self.root_group.inv(elems[-1])
        tail = []
        for i in range(len(edges) - 1, -1, -1):
            e = bar(edges[i])
            tail.append((e, groups[omega[e]].inv(elems[i])))
        return self._canonicalize(new_g0, tail)

    # --- subgroup membership ----------------------------------------------------

    def vertex_subgroup_elements(self, v: int) -> frozenset[NormalForm]:
        """Canonical forms of all of G_v (finite vertex groups only)."""
        if v not in self._vertex_subgroup_cache:
            G = self.gog.vertex_groups[v]
            assert G.is_finite
            self._vertex_subgroup_cache[v] = frozenset(
                self.vertex_element(v, e) for e in G.elements()
            )
        return self._vertex_subgroup_cache[v]

    def in_vertex_subgroup(self, x: NormalForm, v: int) -> bool:
        """Decide x in G_v, where G_v < Gamma sits at the spanning-tree anchor."""
        if v == self.root:
            return not x.tail
        if self.gog.vertex_groups[v].is_finite:
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
        raw = [(name, self.letter(2 * x) if v is None else self.vertex_element(v, x))
               for name, v, x in _generators(self.gog, self.sd)]
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
            labels=tuple(name for name, _ in raw),
            elements=tuple(nf for _, nf in raw),
            step_labels=tuple(step_map.values()),
            steps=steps,
        )
        return self._genset

    def _length_tables(self) -> tuple[tuple, tuple]:
        """Per vertex v, the map g -> |g| over S_v (a BFS table inside a finite
        G_v, the generator length otherwise); per oriented edge e, the pair
        (1 if t_e is a stable letter else 0, the map of omega(e)).  Built on
        first use."""
        if self._lengths is None:
            vertex = []
            for G, genset in zip(self.gog.vertex_groups, self.gog.generating_sets):
                if G.is_finite:
                    words = _finite_words(G, [elem for _, elem in genset])
                    vertex.append(tuple(len(words[g]) for g in G.elements()).__getitem__)
                else:
                    vertex.append(G.gen_length)
            omega = self.gog.graph.omega
            syllable = tuple((0 if self.sd.in_tree(e) else 1, vertex[omega[e]])
                             for e in range(len(omega)))
            self._lengths = (tuple(vertex), syllable)
        return self._lengths

    def _syllable_length_sum(self, x: NormalForm) -> int:
        """Each stable letter counts 1 and each vertex element its length over
        its own S_v."""
        vertex, syllable = self._length_tables()
        total = vertex[self.root](x.g0)
        for e, g in x.tail:
            letter, length = syllable[e]
            total += letter + length(g)
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
        are in BFS discovery order, layer by layer, together with its R = 1
        step table.  The walk fills that table as it goes (see
        :func:`amalgam_lab.groups.bfs`), so every product of a ball element by
        a step is formed at most once, and none twice in inverse pairs.  The
        walk does not step out of the outer sphere, so its rows are finished
        here: all at once in a bipartite Cayley graph, else by
        :func:`amalgam_lab.groups.fill_table`, one exact product per entry
        still unset.
        """
        from .separation import CayleyBall

        if radius < 0:
            raise ValueError(f"ball radius must be >= 0, got {radius}")
        if budget is None and radius in self._ball_cache:
            return self._ball_cache[radius]
        use_default_budget = budget is None
        budget = budget if budget is not None else self.ball_budget
        gs = self.generating_set()
        order = sorted(range(len(gs.steps)), key=lambda i: gs.step_labels[i])
        steps = [gs.steps[i] for i in order]
        column = {s: j for j, s in enumerate(steps)}
        inverse = [column[self.invert(s)] for s in steps]
        index: dict[NormalForm, int] = {}
        table = array("i")
        starts = [0]
        for b, a, _ in bfs(self._identity, steps, self.multiply, index, radius, budget,
                           "Cayley ball", table, inverse):
            if index[a] >= starts[-1]:  # a lies in the newest layer, so b opens the next
                starts.append(index[b])
        starts.append(len(index))
        layers = [hi - lo for lo, hi in zip(starts, starts[1:])]
        layers += [0] * (radius + 1 - len(layers))
        elements, m = tuple(index), len(steps)
        outer = len(elements) - layers[radius]
        if self._bipartite_cayley_graph():
            # no step joins two elements of the outer sphere, and the walk set
            # every step into the ball: what is left unset leaves it
            table[outer * m:] = array("i", [-1 if q == UNSET else q for q in table[outer * m:]])
        else:
            fill_table(elements, steps, self.multiply, index, table, inverse, outer)
        ball = CayleyBall(group=self, radius=radius, elements=elements, index=index,
                          layer_sizes=tuple(layers), step_table=table)
        if use_default_budget:
            self._ball_cache[radius] = ball
        return ball

    def _bipartite_cayley_graph(self) -> bool:
        """True when every defining relator over S has even length.

        Then x -> |x| mod 2 is a homomorphism onto Z/2 that sends every step
        to 1, so each step moves an element to the sphere just inside or just
        outside its own, never along it.  Odd relators, such as b^3 in
        Z/2 * Z/3, close the odd cycles that join two elements of one sphere.
        """
        if self._bipartite is None:
            relators = emit_presentation(self.gog, self.sd).relators
            self._bipartite = all(len(r) % 2 == 0 for r in relators)
        return self._bipartite

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


def _generators(gog: GraphOfGroups, sd: SpanningData):
    """S in presentation order: ``(name, v, elem)`` for each generator of each
    S_v, vertex by vertex, then ``(name, None, k)`` for each non-tree edge pair
    k, whose letter is t_{2k}.  A vertex generator keeps its label unless an
    earlier generator or a stable letter took it; then it is prefixed with its
    vertex name (``v2.a``).  The stable letter of edge NAME is ``s_NAME``."""
    g = gog.graph
    stable = [(f"s_{name}", k) for k, name in enumerate(g.edge_names) if k not in sd.tree_edges]
    seen = {name for name, _ in stable}
    for v, genset in enumerate(gog.generating_sets):
        for lbl, elem in genset:
            name = lbl if lbl not in seen else f"{g.vertex_names[v]}.{lbl}"
            seen.add(name)
            yield name, v, elem
    for name, k in stable:
        yield name, None, k


def _finite_words(G: FiniteGroup, gens) -> dict[int, tuple[int, ...]]:
    """A geodesic word for each element of G over ``gens`` and their
    inverses, as signed 1-based indices into ``gens``: one breadth-first walk
    from the identity."""
    letters = [l for j in range(1, len(gens) + 1) for l in (j, -j)]
    steps = [s for x in gens for s in (x, G.inv(x))]
    words = {G.identity_index: ()}
    for b, a, i in bfs(G.identity_index, steps, G.mul, {}):
        words[b] = words[a] + (letters[i],)
    return words


def emit_presentation(gog: GraphOfGroups, sd: SpanningData) -> Presentation:
    """Instantiate the defining presentation over the generating set S.

    Relator families: vertex-group relators (Cayley-style for table groups,
    commutators for Z^n, none for F_n), i_y(g)^-1 i_{bar y}(g) for tree edges,
    and i_y(g)^-1 s_y^-1 i_{bar y}(g) s_y for non-tree edges.
    """
    g = gog.graph
    gens: list[str] = []
    vgen_range: list[list[int]] = [[] for _ in range(g.n_vertices)]
    stable_index: dict[int, int] = {}
    for name, v, x in _generators(gog, sd):
        gens.append(name)
        if v is None:
            stable_index[x] = len(gens)
        else:
            vgen_range[v].append(len(gens))

    words = {v: _finite_words(G, [elem for _, elem in gog.generating_sets[v]])
             for v, G in enumerate(gog.vertex_groups) if G.is_finite}

    def vertex_word(v: int, elem: Elem) -> tuple[int, ...]:
        """``elem`` over S_v, its local letters mapped to generator ids."""
        G = gog.vertex_groups[v]
        if G.is_finite:
            local = words[v][elem]
        elif G.kind == FREE_ABELIAN:
            local = [i if c > 0 else -i for i, c in enumerate(elem, 1) for _ in range(abs(c))]
        else:
            local = elem
        ids = vgen_range[v]
        return tuple(ids[l - 1] if l > 0 else -ids[-l - 1] for l in local)

    relators: dict[tuple[int, ...], None] = {}

    def add(word: list[int]):
        red = reduce_free_word(word)
        if red:
            relators.setdefault(red, None)

    for v, G in enumerate(gog.vertex_groups):
        if G.is_finite:
            for a in G.elements():
                for gid, (_, selem) in zip(vgen_range[v], gog.generating_sets[v]):
                    b = G.mul(a, selem)
                    add([*vertex_word(v, a), gid, *(-l for l in reversed(vertex_word(v, b)))])
        elif G.kind == FREE_ABELIAN:
            ids = vgen_range[v]
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
