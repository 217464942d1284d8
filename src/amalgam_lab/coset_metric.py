"""Exact distances to finite cosets in pi_1(G, Y, T), with no walk.

:meth:`amalgam_lab.fundgroup.FundamentalGroup.coset_distances` gives the map
y -> min |h·left·y| over a finite subgroup H by a min-plus dynamic programme
over a reduced spelling of left·y, read across the junction of left and y with
no product formed; its docstring proves the programme exact.  This module
holds the two parts that programme needs: the length in Gamma of each vertex
group element (:func:`vertex_lengths`), and the programme itself, run as a
finite automaton (:class:`CosetAutomaton`).  The automaton reads left·y with
the junction loop of ``multiply`` (``FundamentalGroup.junction``), and with
trivial edge groups its run from H = {1} is ``wordlen``.  Both are built on
the first call, so the package imports this module only then.
"""

from __future__ import annotations

from .backends import Elem
from .fundgroup import FundamentalGroup, NormalForm, _finite_words
from .gog import GraphOfGroups, SpanningData, bar


def vertex_lengths(gog: GraphOfGroups, sd: SpanningData) -> list:
    """Per vertex v, the map g -> L_v(g) = |g| in Gamma for g in G_v.

    The length over S_v is only an upper bound: in SL(2,Z) = Z/4 *_{Z/2} Z/6,
    b^3 has length 3 over S_v = {b} but equals a^2, of length 2.  So the
    S_v-lengths of the finite vertex groups are lowered to the least
    function closed under the two moves of a Britton reduction: a product
    g·g' at one vertex costs at most L(g) + L(g'), and i_{bar e}(c) costs at
    most L(i_e(c)) plus 2 on a stable letter, 0 on a tree edge.  That least
    function is the length in Gamma (see ``coset_distances``).  An infinite
    G_v carries only trivial edge groups, so nothing moves into it and it
    keeps its generator length.  Breadth-first lengths are already closed
    under products, so products are closed again only after an edge move has
    lowered an entry: with trivial edge groups the table is one breadth-first
    pass per vertex group.
    """
    g = gog.graph
    lengths: list = []
    for G, genset in zip(gog.vertex_groups, gog.generating_sets):
        if G.is_finite:
            words = _finite_words(G, [elem for _, elem in genset])
            lengths.append([len(words[a]) for a in G.elements()])
        else:
            lengths.append(None)
    changed = False  # an entry lowered since the last product pass
    while True:
        for e, emb in enumerate(gog.embeddings):
            src, dst = lengths[g.omega[e]], lengths[g.alpha[e]]
            if src is None or dst is None:
                continue
            cost = 0 if sd.in_tree(e) else 2
            back = gog.embedding(bar(e))
            for c in emb.edge_group.elements():
                a, b = emb.apply(c), back.apply(c)
                if src[a] + cost < dst[b]:
                    dst[b] = src[a] + cost
                    changed = True
        if not changed:
            return [G.gen_length if L is None else tuple(L).__getitem__
                    for G, L in zip(gog.vertex_groups, lengths)]
        changed = False
        for G, L in zip(gog.vertex_groups, lengths):
            if L is None:
                continue
            for a in G.elements():
                for b in G.elements():
                    ab = G.table[a][b]
                    if L[a] + L[b] < L[ab]:
                        L[ab] = L[a] + L[b]
                        changed = True


class CosetAutomaton:
    """The min-plus programme of ``coset_distances`` as a finite automaton.

    A carrier is a tuple of elements of one vertex group: for an oriented
    edge x, the images i_x(c) in G_omega(x) in edge-group order; for a start
    set, the members of H < G_root.  A piece enters carrying one cost per
    element of its in-carrier and leaves carrying one cost per element of
    its out-carrier.  A cost vector less its minimum is a state.  Each entry
    of a state is at most the largest L_v, so only finitely many occur.
    Hence the step (state, in-carrier, syllable, out-carrier) ->
    (next state, added cost) is kept in a table filled on first use.  At a
    vertex whose edge groups are all trivial, as at every infinite G_v, each
    carrier has one element: a piece keeps the state (0,) and adds L_v(g)
    plus its letter, and the run adds that directly, with no table and no
    step.  A start set is direct only when H = {1}.
    """

    def __init__(self, fg: FundamentalGroup):
        gog, g = fg.gog, fg.gog.graph
        self.fg = fg
        self.groups = gog.vertex_groups
        self.lengths = vertex_lengths(gog, fg.sd)
        self.stable = tuple(0 if fg.sd.in_tree(e) else 1 for e in g.oriented_edges())
        # carrier key -> (its vertex, its elements); keys past the edges are start sets
        self.carriers = [(g.omega[x], tuple(emb.apply(c) for c in emb.edge_group.elements()))
                         for x, emb in enumerate(gog.embeddings)]
        # vertex -> L_v if its edge groups are all trivial, else None; carrier key -> that
        # of its vertex
        edged = {v for v, members in self.carriers if len(members) > 1}
        self.free = [None if v in edged else L for v, L in enumerate(self.lengths)]
        self.direct = [self.free[v] for v, _ in self.carriers]
        self.starts: dict = {}    # H -> (carrier key, zero state), or None off the root group
        self.states: dict[tuple, int] = {}
        self.vectors: list[tuple] = []
        self.table: dict = {}
        self.unit = self.start((fg.identity(),))  # the start of H = {1}, read by wordlen

    def distances(self, left: NormalForm, H):
        """The map y -> min |h·left·y| over h in H, a tuple or frozenset of
        normal forms.  When H lies in the root group, the map forms no
        product (see :meth:`junction`); otherwise it forms h·left once per
        member h here, and takes the least of their maps."""
        start = self.start(H)
        if start is None:
            parts = [self.junction(self.unit, self.fg.multiply(h, left)) for h in H]
            return lambda y: min(part(y) for part in parts)
        return self.junction(start, left)

    def junction(self, start, left: NormalForm):
        """y -> the least cost of a spelling of h·left·y over h in the start set.

        The run over left's spelling is made once, and the state and cost
        before each of its pieces are kept.  Per y, only
        ``FundamentalGroup.junction`` runs, the pinch loop of ``multiply``:
        it cancels the pinches across the junction until the first that does
        not pinch, at left's n-th letter, where left's n-th syllable merges
        with what y carries in.
        g0 t_e1 g1 ... t_en (merged) followed by y's uncancelled letters is a
        reduced spelling of left·y.  It is not canonical, and it need not
        be: every reduced spelling is an edge-group insertion of every other,
        and the programme ranges over all of them.  So the run resumes from
        the kept state before piece n and reads only y's side.
        """
        key0, state0 = start
        trace: list = []
        self.run(state0, key0, 0, left.g0, left.tail, trace)
        run, junction, root = self.run, self.fg.junction, self.fg.root_group
        lt, g0 = left.tail, left.g0

        def distance(y: NormalForm) -> int:
            n, k, merged = junction(lt, y)
            if n:
                state, total = trace[n]
                return run(state, lt[n - 1][0], total, merged, y.tail[k:])
            return run(state0, key0, 0, root.mul(g0, merged), y.tail[k:])
        return distance

    def start(self, H):
        """The start of the run for H, or None when some member of H lies
        outside the root group."""
        if H not in self.starts:
            start = None
            if all(not h.tail for h in H):
                members = tuple(h.g0 for h in H)
                self.carriers.append((self.fg.root, members))
                self.direct.append(self.free[self.fg.root] if len(members) == 1 else None)
                start = (len(self.carriers) - 1, self.state((0,) * len(members)))
            self.starts[H] = start
        return self.starts[H]

    def state(self, costs: tuple) -> int:
        if costs not in self.states:
            self.states[costs] = len(self.vectors)
            self.vectors.append(costs)
        return self.states[costs]

    def run(self, state: int, key: int, total: int, g: Elem, tail, trace=None) -> int:
        """The least cost of the spelling g t_e1 g1 ... over its edge-group
        insertions, entering in ``state`` at carrier ``key`` with ``total``
        spent.  A ``trace`` list gets (state, total) before each piece."""
        table, step, direct, stable = self.table, self.step, self.direct, self.stable
        for e, nxt in tail:
            if trace is not None:
                trace.append((state, total))
            out = e ^ 1  # the piece before t_e carries i_{bar e}(c)
            length = direct[key]
            if length is None:
                hit = table.get((state, key, g, out))
                if hit is None:
                    hit = step(state, key, g, out)
                state, added = hit
                total += added
            else:
                total += length(g) + stable[out]
            key, g = e, nxt
        if trace is not None:
            trace.append((state, total))
        length = direct[key]
        if length is not None:
            return total + length(g)
        hit = table.get((state, key, g, None))
        if hit is None:
            hit = step(state, key, g, None)
        return total + hit[1]

    def step(self, state: int, key: int, g: Elem, out: int | None) -> tuple[int, int]:
        """One piece k^-1·g·k' in the finite vertex group of carrier ``key``:
        the next state and the cost it adds, with the stable letter after
        the piece."""
        v, ins = self.carriers[key]
        G, length = self.groups[v], self.lengths[v]
        letter = self.stable[out] if out is not None else 0
        outs = self.carriers[out][1] if out is not None else (G.identity(),)
        row = [(d, G.mul(G.inv(k), g)) for d, k in zip(self.vectors[state], ins)]
        costs = [min(d + length(G.mul(a, k)) for d, a in row) for k in outs]
        low = min(costs)
        hit = (self.state(tuple(c - low for c in costs)), low + letter)
        self.table[state, key, g, out] = hit
        return hit
