"""The fundamental group of a graph of groups: normal forms, word problem,
presentation emission, the generating set S, the word metric d_S and its
exact balls.

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
them.  One method, :meth:`FundamentalGroup.junction`, cancels those pinches;
the coset automaton reads its distances across a junction with it too.  With
finite edge groups the merged syllable may also hand an edge-group element
leftward; the sweep that carries it stops at the first syllable where the
carry becomes trivial.  :meth:`FundamentalGroup.normalize` sweeps a whole
word; it builds vertex elements and stable letters and is the test oracle.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field

from .backends import FREE_ABELIAN, Elem, GroupBackend, reduce_free_word
from .errors import BaseMismatch, BudgetExceeded
from .gog import GraphOfGroups, SpanningData, bar
from .groups import UNSET, FiniteGroup, Walk

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
        self._len_walk: Walk | None = None
        self._fast_metric = gog.all_edge_groups_trivial
        self._cosets = None  # the automaton behind coset_distances, built on first call
        self._bipartite: bool | None = None
        self._ball_cache: dict[int, CayleyBall] = {}

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

        Both operands are Britton-reduced and canonical, so only the junction
        of x and y can pinch: x's last edge is e, y's next is bar e, and the
        merged element lies in im(i_e).  Then t_e i_e(h) t_{bar e} = i_{bar e}(h)
        joins y's following element, and the junction moves one letter further
        in on each side (:meth:`junction`).  At the first junction that does
        not pinch, the merged syllable is split as i_e(h)·r with r its
        right-coset representative, and i_{bar e}(h) moves into the syllable
        before it, which is split the same way, and so on leftward.  The sweep
        stops once the carried h is the identity, since the syllables further
        left are already canonical, or at g0.  This push creates no pinch: a
        pinch at syllable g of x needs the pushed element to lie in the same
        image im(i), and g·i(h) lies in im(i) exactly when g does.  y's suffix
        after the junction is left as it is, reduced and canonical.  So the
        cost is the cancelled letters plus the syllables the carry passes, not
        the length of the word.  With a trivial edge group the carried h is
        always 1: a pinch needs the merged element to be 1, every element is
        its own coset representative, and nothing moves left of the junction.

        Two junctions need no loop.  If x has no tail, x·y is x's g0 times y's
        g0 followed by y's tail.  If y's g0 is 1 and y's first edge is not bar
        of x's last, the junction cannot pinch and nothing is carried: x·y is
        the two tails joined.  That word is reduced, since only the junction
        could pinch, and canonical, since whether a syllable is its coset
        representative depends on its own edge alone and every syllable keeps
        its edge (normal form theorem; Serre, *Trees*, I.1).  The joined tail
        shares x's and y's syllables.

        The one loop serves trivial edge groups too, at a measured cost:
        against a copy specialised to them, ``word_metric_ball(5)`` of
        ``corpus:z2z2`` is about 10% slower (0.048-0.050 against 0.044-0.046
        s, best of 7, three alternating runs; CPython 3.11, 2-vCPU VM).  No
        benchmark workload reaches the loop with a trivial edge group: the
        products of ``ends corpus:f2`` all take the shortcuts.
        """
        if x.group is not y.group:
            raise BaseMismatch("operands anchored at different base structures")
        xt, yt = x.tail, y.tail
        if not xt:
            return NormalForm(self, self.root_group.mul(x.g0, y.g0), yt)
        if y.g0 == self._identity.g0 and (not yt or yt[0][0] != bar(xt[-1][0])):
            return NormalForm(self, x.g0, xt + yt)
        n, k, merged = self.junction(xt, y)
        if not n:
            return NormalForm(self, self.root_group.mul(x.g0, merged), yt[k:])
        embeddings = self.gog.embeddings
        en = xt[n - 1][0]
        emb = embeddings[en]
        h, r = emb.right_decompose(merged)
        if h == emb.edge_group.identity_index:
            return NormalForm(self, x.g0, xt[:n - 1] + ((en, r),) + yt[k:])
        groups, omega = self.gog.vertex_groups, self.gog.graph.omega
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

    def junction(self, xt: tuple, y: NormalForm) -> tuple[int, int, Elem]:
        """Cancel the pinches t_e·i_e(h)·t_{bar e} -> i_{bar e}(h) across the
        junction of a reduced tail ``xt`` and y, innermost first (Britton's
        lemma; Lyndon-Schupp IV.2).

        Returns (n, k, g): ``xt[:n]`` and ``y.tail[k:]`` are what is left, and
        g is y's carry merged into ``xt``'s n-th syllable, the first that does
        not pinch; when n = 0 every letter of ``xt`` cancelled and g is the
        carry that reaches the g0 before ``xt``.  g need not be a coset
        representative: :meth:`multiply` canonicalises it, and the coset
        automaton reads any reduced spelling.
        """
        gog = self.gog
        groups, omega, embeddings = gog.vertex_groups, gog.graph.omega, gog.embeddings
        yt, carry, n, k = y.tail, y.g0, len(xt), 0
        while n:
            en, gn = xt[n - 1]
            merged = groups[omega[en]].mul(gn, carry)
            emb = embeddings[en]
            if k == len(yt) or yt[k][0] != bar(en) or not emb.contains(merged):
                return n, k, merged
            f, yk = yt[k]
            carry = groups[omega[f]].mul(embeddings[f].apply(emb.preimage(merged)), yk)
            n -= 1
            k += 1
        return 0, k, carry

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

    def wordlen(self, x: NormalForm) -> int:
        """Exact d_S(1, x).

        With trivial edge groups (free products, free factors), it is the
        coset automaton's run from the start H = {1} over x's own spelling
        (see :meth:`coset_distances`): each stable letter counts 1 and each
        vertex element its L_v, with no table and no step.  Otherwise fall
        back to a lazily grown global :class:`amalgam_lab.groups.Walk` with a
        step table, a whole layer at a time: x's length is the layer holding
        its position.  A walk stopped by the budget is dropped.
        """
        if self._fast_metric:
            cosets = self._coset_automaton()
            key, state = cosets.unit
            return cosets.run(state, key, 0, x.g0, x.tail)
        walk = self._len_walk
        if walk is None:
            walk = self._len_walk = self._walk(self.generating_set().steps, "wordlen")
        try:
            while x not in walk.index:
                if not walk.grow():
                    raise BudgetExceeded(self.ball_budget, "wordlen",
                                         "element unreachable: S does not generate?")
        except BudgetExceeded:
            self._len_walk = None
            raise
        return bisect_right(walk.layer_starts, walk.index[x]) - 1

    def dist(self, x: NormalForm, y: NormalForm) -> int:
        return self.wordlen(self.multiply(self.invert(x), y))

    def coset_distances(self, left: NormalForm, H):
        """y -> min |h·left·y| over the members h of a finite subgroup H < Gamma,
        with no walk, no ``wordlen`` and no product per point: h -> h^-1
        permutes H, so d(x, gamma·H) is ``coset_distances(gamma^-1, H)(x)``.
        With H = {1} and left = 1 the map is the word length.

        Write y = g0 t_{e1} g1 ... t_{en} gn as any reduced spelling, canonical
        or not.  By the normal form theorem (Serre, *Trees*, I.1;
        Lyndon-Schupp IV.2) the reduced spellings of y are exactly the
        edge-group insertions t_e = i_{bar e}(c) t_e i_e(c)^-1 into that one.
        So each splits into pieces, each in one vertex group, with the n
        letters t_e between them: the first piece is h·g0·i_{bar e1}(c1), and
        the i-th is i_{ei}(ci)^-1·gi·i_{bar e(i+1)}(c(i+1)).  Let L_v(g) = |g|
        in Gamma for g in G_v (see :func:`amalgam_lab.coset_metric.vertex_lengths`).
        A spelling costs the sum of L_v over its pieces plus one per stable
        letter, and it is a word of that length for h·y.  Conversely, read a
        geodesic word for h·y over S as a word in the graph of groups and
        Britton-reduce it (Britton's lemma; Lyndon-Schupp IV.2).  Merging two
        syllables costs at most the sum of their L_v.  A pinch
        t_e i_e(c) t_{bar e} -> i_{bar e}(c) gives up two stable letters, or
        none on a tree edge, and L_v is closed under both moves.  So the
        reduced word the reduction leaves is one of the spellings, and it
        costs at most |h·y|.  Hence |h·y| is the least cost of a spelling: a
        min-plus programme along the syllables of any reduced spelling of y
        that carries one cost per edge-group element across each letter.
        :class:`amalgam_lab.coset_metric.CosetAutomaton` runs it as a finite
        automaton, over left·y read across their junction.
        """
        return self._coset_automaton().distances(left, H)

    def _coset_automaton(self):
        if self._cosets is None:
            from .coset_metric import CosetAutomaton  # loaded on first use, not at import
            self._cosets = CosetAutomaton(self)
        return self._cosets

    def word_metric_ball(self, radius: int) -> CayleyBall:
        """Exact radius-n ball around the identity, as an indexed graph,
        within the group's ``ball_budget`` and cached per radius.

        Returns a :class:`CayleyBall` whose elements are in BFS discovery
        order, layer by layer, together with its R = 1 step table, all read
        off one :class:`amalgam_lab.groups.Walk` of n layers.  It fills the
        table as it goes, so every product of a ball element by a step is
        formed at most once, and none twice in inverse pairs.  The walk does
        not step out of the outer sphere, so its rows are finished here.  In
        a bipartite Cayley graph they already are: the walk set every step
        into the ball, and each entry it left at -1 leaves it.  Else
        :meth:`~amalgam_lab.groups.Walk.close` forms one exact product per
        entry still -1.  When a larger ball is cached, B(n) is its prefix
        (see :meth:`CayleyBall.prefix`) and no product is formed.
        """
        if radius < 0:
            raise ValueError(f"ball radius must be >= 0, got {radius}")
        if radius in self._ball_cache:
            return self._ball_cache[radius]
        larger = [r for r in self._ball_cache if r > radius]
        if larger:
            ball = self._ball_cache[min(larger)].prefix(radius)
            self._ball_cache[radius] = ball
            return ball
        gs = self.generating_set()
        order = sorted(range(len(gs.steps)), key=lambda i: gs.step_labels[i])
        steps = [gs.steps[i] for i in order]
        walk = self._walk(steps, "Cayley ball").run(radius)
        if not self._bipartite_cayley_graph():
            walk.close()
        starts = walk.layer_starts
        layers = [hi - lo for lo, hi in zip(starts, starts[1:])]
        layers += [0] * (radius + 1 - len(layers))
        ball = CayleyBall(group=self, radius=radius, elements=tuple(walk.elements),
                          index=walk.index, layer_sizes=tuple(layers), step_table=walk.table)
        self._ball_cache[radius] = ball
        return ball

    def _walk(self, steps, name: str) -> Walk:
        """A walk from 1 over ``steps`` that keeps the step table."""
        column = {s: j for j, s in enumerate(steps)}
        return Walk(self._identity, steps, self.multiply, self.ball_budget, name,
                    [column[self.invert(s)] for s in steps])

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
class CayleyBall:
    """Exact radius-n ball in (Gamma, d_S), as an indexed graph.

    ``elements`` is in BFS discovery order, layer by layer, so layer k is
    the slice ``layer_starts[k]:layer_starts[k + 1]``, offsets summed from
    ``layer_sizes``; ``index`` maps each element to its position.  So x has
    word length <= k exactly when ``index[x] < layer_starts[k + 1]``.
    Distances between ball elements are computed in the group (never
    truncated to the ball), via ``group.dist``.
    ``step_table`` is the R = 1 neighbour table, filled by the walk that
    found the elements: entry (p, i) is the position of
    ``elements[p] * steps[i]`` (steps sorted by label), or -1 exactly when
    that product lies outside the ball.  Tables for R > 1 are composed from
    it on first use and cached per R; they never change the elements or the
    layers.
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

    def prefix(self, r: int) -> "CayleyBall":
        """B(r) for r <= ``radius``, equal field by field to a fresh walk.

        The walk is deterministic and reaches B(r) first, in the same order,
        so the elements, index and layers are prefixes.  The rows of layers
        below r are complete in both balls, and every entry lies in B(r).  A
        row of layer r is complete here too, so a position past B(r) is a
        product that leaves it and reads -1; every other entry is the fresh
        walk's.
        """
        n, m = self.layer_starts[r + 1], len(self.step_table) // len(self)
        elements, table = self.elements[:n], self.step_table[:n * m]
        outer = self.layer_starts[r] * m
        table[outer:] = array("i", [q if q < n else UNSET for q in table[outer:]])
        return CayleyBall(group=self.group, radius=r, elements=elements,
                          index=dict(zip(elements, range(n))),
                          layer_sizes=self.layer_sizes[:r + 1], step_table=table)

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

    def adjacency(self, i: int) -> list[list]:
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
    walk = Walk(G.identity_index, steps, G.mul).run()
    words = [()]  # by walk position
    for p, i in zip(walk.parent[1:], walk.step[1:]):
        words.append(words[p] + (letters[i],))
    return dict(zip(walk.elements, words))


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
