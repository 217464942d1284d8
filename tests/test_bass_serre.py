from __future__ import annotations

import random

import pytest

from amalgam_lab.bass_serre import TreeBall, TreeBallConfig, tiling_tree
from amalgam_lab.boundary import BoundaryApprox
from amalgam_lab.corpus import NAMES
from amalgam_lab.errors import BudgetExceeded, NoEdges, NotInBall
from amalgam_lab.fundgroup import FundamentalGroup, NormalForm

from conftest import (
    ALL_TEXTS,
    FINITE_EDGED,
    SL2Z,
    degree,
    eager_rep,
    full_star_degree,
    in_subtree_walk,
    make_fg,
    phi,
    phi_random,
    phi_spread_bound,
    translate_edge,
    translate_vertex,
)
from tree_oracle import OracleTreeBall

CORPUS = ["dinf", "z2z3", "f2", "zxz2", "z2z2"]


def test_dinf_is_path_small_radii(dinf):
    _, _, fg = dinf
    for r in range(0, 7):
        tb = TreeBall(fg, r)
        assert len(tb.vertices) == 2 * r + 1
        assert sum(len(tb.children(v)) for v in tb.vertices) == len(tb.vertices) - 1
        assert all(degree(tb, v) <= 2 for v in tb.vertices)


def test_full_star_degree_of_an_infinite_vertex_group_is_none(zxz2):
    """Z * Z/2: the Z vertex has an infinite star, the Z/2 vertex one edge
    coset per element of Z/2."""
    gog, _, fg = zxz2
    tb = TreeBall(fg, 2)
    degrees = [full_star_degree(fg, v) for v in range(gog.graph.n_vertices)]
    assert [d is None for d in degrees] == [not G.is_finite for G in gog.vertex_groups]
    assert [d for d in degrees if d is not None] == [2]
    for v in tb.vertices:
        if tb.depth(v) < tb.radius and not tb.truncated[tb.vtype[v]]:
            assert degree(tb, v) == full_star_degree(fg, tb.vtype[v])


def test_z2z3_degrees_by_type(z2z3):
    gog, _, fg = z2z3
    tb = TreeBall(fg, 4)
    for v in tb.vertices:
        if tb.depth(v) < tb.radius:
            want = 2 if gog.graph.vertex_names[tb.vtype[v]] == "v1" else 3
            assert degree(tb, v) == want == full_star_degree(fg, tb.vtype[v])


@pytest.mark.parametrize("name", CORPUS)
def test_ball_is_tree(name):
    _, _, fg = make_fg(name)
    for r in (1, 2, 3, 4):
        tb = TreeBall(fg, r)
        # every vertex but the root is the child of exactly one vertex
        children = sorted(c for v in tb.vertices for c in tb.children(v))
        assert children == list(range(1, len(tb.vertices)))
        assert all(tb.parent[c] == v for v in tb.vertices for c in tb.children(v))


def test_single_vertex_no_edges(trivial):
    _, _, fg = trivial
    tb = TreeBall(fg, 5)
    assert len(tb.vertices) == 1 and not tb.children(0)


def test_geodesic_trivial_and_endpoints(dinf):
    _, _, fg = dinf
    tb = TreeBall(fg, 3)
    assert tb.geodesic(0, 0) == []
    leaves = [v for v in tb.vertices if tb.depth(v) == 3]
    # the two ends of the radius-3 path
    assert len(tb.geodesic(leaves[0], leaves[1])) == 6


def test_geodesic_through_root(z2z3):
    _, _, fg = z2z3
    tb = TreeBall(fg, 2)
    leaves = [v for v in tb.vertices if tb.depth(v) == 2]
    by_branch = {}
    for leaf in leaves:
        top = tb.root_path(leaf)[0]
        by_branch.setdefault(top, []).append(leaf)
    b1, b2 = list(by_branch.values())[:2]
    assert len(tb.geodesic(b1[0], b2[0])) == 4


def test_geodesic_not_in_ball(dinf):
    _, _, fg = dinf
    tb = TreeBall(fg, 2)
    with pytest.raises(NotInBall):
        tb.geodesic(0, 999)


def test_split_by_edge_dinf_middle(dinf):
    _, _, fg = dinf
    tb = TreeBall(fg, 3)
    # the first edge at the root splits 7 vertices into child side and rest
    side0, side1 = tb.split_by_edge(1)
    assert {len(side0), len(side1)} == {4, 3}
    assert 1 in side0
    assert side0 | side1 == frozenset(range(7))


def test_split_by_leaf_edge(dinf):
    _, _, fg = dinf
    tb = TreeBall(fg, 3)
    leaf = next(v for v in tb.vertices if tb.depth(v) == 3)
    side0, _ = tb.split_by_edge(leaf)
    assert side0 == frozenset({leaf})


def test_the_root_has_no_parent_edge(dinf):
    """An edge is named by its child vid, so 0 (the root) and vids past the
    ball name no edge: the edge queries refuse them."""
    _, _, fg = dinf
    tb = TreeBall(fg, 3)
    for child in (0, len(tb.vertices)):
        for query in (tb.split_by_edge, tb.edge_coset_elements, lambda c: phi(tb, c),
                      lambda c: tb.edge_tree_distance(c, 1)):
            with pytest.raises(NotInBall):
                query(child)


def test_split_z2z3_root_edge_mixes_types(z2z3):
    _, _, fg = z2z3
    tb = TreeBall(fg, 3)
    side0, side1 = tb.split_by_edge(1)
    for side in (side0, side1):
        types = {tb.vtype[v] for v in side}
        assert types == {0, 1}


def test_tiling_tree_dinf(dinf):
    _, _, fg = dinf
    tb = TreeBall(fg, 2)
    tt = tiling_tree(tb)
    assert len(tt.edge_ids) == 1 and len(tt.vertex_ids) == 2 and tt.connected
    e = tt.edge_ids[0]
    assert {tb.vtype[tb.parent[e]], tb.vtype[e]} == {0, 1}


def test_tiling_tree_f2_star(f2):
    _, _, fg = f2
    tb = TreeBall(fg, 2)
    tt = tiling_tree(tb)
    assert len(tt.edge_ids) == 2 and tt.connected
    assert 0 in tt.vertex_ids


def test_tiling_tree_no_edges(trivial):
    _, _, fg = trivial
    tb = TreeBall(fg, 2)
    with pytest.raises(NoEdges):
        tiling_tree(tb)


@pytest.mark.parametrize("name", CORPUS)
def test_fact_translates_of_tiling_tree_meet(name):
    """s*T meets T for every metric generator s, on every corpus input."""
    _, _, fg = make_fg(name)
    tb = TreeBall(fg, 4)
    tt = tiling_tree(tb)
    for s in fg.generating_set().steps:
        meets = False
        for vid in tt.vertex_ids:
            img = translate_vertex(tb, s, vid)
            if img is not None and img in tt.vertex_ids:
                meets = True
                break
        assert meets, f"{name}: translate by a generator misses the tiling tree"


@pytest.mark.parametrize("name", CORPUS)
def test_fact_edge_to_vertex_distance(name):
    """Every edge coset mu*G_y has mu*G_v within |unoriented edges| in the tree,
    for every vertex type; exhaustive over radius-5 balls."""
    gog, _, fg = make_fg(name)
    tb = TreeBall(fg, 5)
    bound = gog.graph.n_edges
    for e in tb.vertices[1:]:
        mu = tb.edge_rep(e)
        for vtype in range(gog.graph.n_vertices):
            # search the tree neighborhood of the edge out to the bound
            found = None
            frontier = {tb.parent[e], e}
            seen = set(frontier)
            for dist in range(0, bound + 1):
                for vid in sorted(frontier):
                    if tb.vtype[vid] == vtype and fg.coset_membership(mu, vtype, tb.rep(vid)):
                        found = dist
                        break
                if found is not None:
                    break
                nxt = set()
                for vid in frontier:
                    if vid:
                        nxt.add(tb.parent[vid])
                    nxt.update(tb.children(vid))
                frontier = nxt - seen
                seen |= frontier
            assert found is not None and found <= bound, (
                f"{name}: no mu*G_{vtype} within {bound} of the edge into {e}")


def test_gamma_action_preserves_adjacency(z2z3):
    _, _, fg = z2z3
    tb = TreeBall(fg, 4)
    ball = fg.word_metric_ball(3)
    rng = random.Random(3)
    gammas = [ball.elements[rng.randrange(len(ball.elements))] for _ in range(100)]
    for gamma in gammas:
        for e in tb.vertices[1:21]:
            pi = translate_vertex(tb, gamma, tb.parent[e])
            ci = translate_vertex(tb, gamma, e)
            te = translate_edge(tb, gamma, e)
            if pi is not None and ci is not None and te is not None:
                assert {tb.parent[te], te} == {pi, ci}


@pytest.mark.parametrize("name", CORPUS)
def test_remark_edge_coset_in_endpoint_union(name):
    _, _, fg = make_fg(name)
    tb = TreeBall(fg, 3)
    for c in tb.vertices[1:]:
        p = tb.parent[c]
        for x in tb.edge_coset_elements(c):
            assert (fg.coset_membership(x, tb.vtype[p], tb.rep(p))
                    or fg.coset_membership(x, tb.vtype[c], tb.rep(c)))


def test_phi_identity_edge(dinf):
    _, _, fg = dinf
    tb = TreeBall(fg, 2)
    tt = tiling_tree(tb)
    child = tt.edge_ids[0]
    val = phi(tb, child)
    assert val in tb.edge_coset_elements(child)
    assert val.is_identity()   # the trivial edge group's identity coset


def test_phi_variants_within_spread_bound(z2z3):
    _, _, fg = z2z3
    tb = TreeBall(fg, 6)
    D = phi_spread_bound(fg)
    rng = random.Random(17)
    edges = list(range(1, len(tb.vertices)))
    for child in (edges if len(edges) <= 500 else edges[:500]):
        canonical = phi(tb, child)
        rand = phi_random(tb, child, rng)
        assert fg.dist(canonical, rand) <= D


def test_phi_uniformly_finite_to_one(z2z3):
    gog, _, fg = z2z3
    tb = TreeBall(fg, 4)
    bound = max(g.order for g in gog.edge_groups)
    counts = {}
    for child in range(1, len(tb.vertices)):
        counts.setdefault(phi(tb, child), 0)
        counts[phi(tb, child)] += 1
    assert max(counts.values()) <= bound


def test_truncated_stars_marked(z2z2):
    _, _, fg = z2z2
    tb = TreeBall(fg, 2)
    assert all(tb.truncated[tb.vtype[v]] for v in tb.vertices)
    assert tb.children(0)


def test_finite_stars_not_truncated(dinf):
    _, _, fg = dinf
    tb = TreeBall(fg, 2)
    assert not any(tb.truncated[tb.vtype[v]] for v in tb.vertices)


def test_tree_ball_helper(dinf):
    _, _, fg = dinf
    assert len(TreeBall(fg, 2).vertices) == 5


AMALGAM_Z4_Z6 = """
# Z/4 *_{Z/2} Z/6: a genuinely amalgamated product, (2,3)-biregular tree
group A cyclic 4
group B table [[0,1,2,3,4,5],[1,2,3,4,5,0],[2,3,4,5,0,1],[3,4,5,0,1,2],[4,5,0,1,2,3],[5,0,1,2,3,4]] labels [e,b,b2,b3,b4,b5]
group E cyclic 2
vertex v1 A gens [a]
vertex v2 B gens [b]
edge e1 v1 -- v2 group E embed_fwd {a:b3} embed_bwd {a:a2}
"""


def make_amalgam():
    from amalgam_lab.dsl import parse_gog
    from amalgam_lab.fundgroup import FundamentalGroup
    from amalgam_lab.gog import spanning_tree

    gog = parse_gog(AMALGAM_Z4_Z6)
    sd = spanning_tree(gog)
    return gog, sd, FundamentalGroup(gog, sd)


def test_amalgam_tree_structure_nontrivial_edge_group():
    gog, _, fg = make_amalgam()
    assert not gog.all_edge_groups_trivial
    tb = TreeBall(fg, 5)
    assert sum(len(tb.children(v)) for v in tb.vertices) == len(tb.vertices) - 1
    for v in tb.vertices:
        if tb.depth(v) < tb.radius:
            assert degree(tb, v) == (2 if tb.vtype[v] == 0 else 3)


def test_phi_variants_500_edges_nontrivial_subgroup():
    _, _, fg = make_amalgam()
    tb = TreeBall(fg, 13)
    assert len(tb.vertices) > 500
    D = phi_spread_bound(fg)
    assert D >= 1    # the embedded Z/2 is not a point
    rng = random.Random(31)
    for child in range(1, 501):
        canonical = phi(tb, child)
        rand = phi_random(tb, child, rng)
        assert fg.dist(canonical, rand) <= D


def test_amalgam_normal_forms_satisfy_canonical_invariants():
    """Every ball element is Britton-reduced with canonical transversal reps,
    and the group law is associative with exact inverses: on Z/4 *_{Z/2} Z/6
    and on the finite-edge-group test inputs."""
    from amalgam_lab.gog import bar

    for gog, _, fg in [make_amalgam(), *(make_fg(s) for s in FINITE_EDGED.values())]:
        ball = fg.word_metric_ball(5)
        for x in ball.elements:
            for i, (e, g) in enumerate(x.tail):
                emb = gog.embedding(e)
                assert emb.right_decompose(g)[1] == g
                if i + 1 < len(x.tail):
                    e2, _ = x.tail[i + 1]
                    if e2 == bar(e):
                        assert not emb.contains(g)   # Britton condition
            assert fg.multiply(x, fg.invert(x)).is_identity()
        rng = random.Random(13)
        elems = ball.elements
        for _ in range(500):
            x, y, z = (elems[rng.randrange(len(elems))] for _ in range(3))
            assert fg.multiply(fg.multiply(x, y), z) == fg.multiply(x, fg.multiply(y, z))


def test_amalgam_abelianization_is_z12():
    from amalgam_lab.fundgroup import abelianization, emit_presentation

    gog, sd, _ = make_amalgam()
    # <a,b | a^4, b^6, a^2 b^-3> abelianized: Z/12 (SNF of [[4,0],[0,6],[2,-3]])
    assert abelianization(emit_presentation(gog, sd)) == (0, (12,))


@pytest.mark.parametrize("spec", [*ALL_TEXTS.values()], ids=[*ALL_TEXTS])
def test_tree_vertices_and_edges_are_pairwise_distinct_cosets(spec):
    """The build keys no coset: it relies on the tree having no cycles.
    Verify directly that no two ball vertices carry the same vertex coset
    and no two ball edges the same edge coset, finite types included."""
    _, _, fg = make_fg(spec)
    tb = TreeBall(fg, 4)
    vtype, reps = tb.vtype, [tb.rep(v) for v in tb.vertices]
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if vtype[i] == vtype[j]:
                assert not fg.coset_membership(reps[i], vtype[i], reps[j]), \
                    (reps[i].display(), reps[j].display())
    cosets: dict[tuple[int, NormalForm], int] = {}
    for e in tb.vertices[1:]:
        for m in tb.edge_coset_elements(e):
            assert cosets.setdefault((tb.edge_pair(e), m), e) == e, m.display()


# --- the indexed tree against the walks it replaced ---------------------------


def _root_path_walk(tb, vid):
    out = []
    while vid:
        out.append(vid)
        vid = tb.parent[vid]
    out.reverse()
    return out


def _geodesic_walk(tb, u, w):
    pu, pw = _root_path_walk(tb, u), _root_path_walk(tb, w)
    i = 0
    while i < len(pu) and i < len(pw) and pu[i] == pw[i]:
        i += 1
    return pu[i:][::-1] + pw[i:]


def _split_walk(tb, child):
    side0 = set()
    stack = [child]
    while stack:
        vid = stack.pop()
        side0.add(vid)
        stack.extend(tb.children(vid))
    return frozenset(side0), frozenset(range(len(tb.vertices))) - side0


def _edge_tree_distance_walk(tb, child, vid):
    return min(len(_geodesic_walk(tb, tb.parent[child], vid)),
               len(_geodesic_walk(tb, child, vid)))


ORACLE_INPUTS = [*NAMES, SL2Z]


@pytest.mark.parametrize("spec", ORACLE_INPUTS, ids=[*NAMES, "sl2z"])
def test_indexed_tree_matches_walks(spec):
    _, _, fg = make_fg(spec)
    tb = TreeBall(fg, 3 if spec == "z2z2" else 4)
    n = len(tb.vertices)
    for vid in range(n):
        assert tb.root_path(vid) == _root_path_walk(tb, vid)
        for other in range(n):
            assert tb.in_subtree(vid, other) == in_subtree_walk(tb, vid, other)
            assert tb.geodesic(vid, other) == _geodesic_walk(tb, vid, other)
    for e in tb.vertices[1:]:
        sides = tb.split_by_edge(e)
        assert sides == _split_walk(tb, e)
        assert all(type(side) is frozenset for side in sides)
        for vid in range(n):
            assert tb.edge_tree_distance(e, vid) == _edge_tree_distance_walk(tb, e, vid)
        coset = tb.edge_coset_elements(e)
        assert phi(tb, e) == min(coset, key=NormalForm.sort_key)
        for m in coset:
            assert tb.find_edge(m, tb.edge_pair(e)) == e


@pytest.mark.parametrize("spec", ORACLE_INPUTS, ids=[*NAMES, "sl2z"])
def test_tiling_tree_connectivity_matches_search(spec):
    _, _, fg = make_fg(spec)
    tb = TreeBall(fg, 4)
    if fg.gog.graph.n_edges == 0:
        return
    tt = tiling_tree(tb)
    adj = {v: set() for v in tt.vertex_ids}
    for child in tt.edge_ids:
        parent = tb.parent[child]
        adj[parent].add(child)
        adj[child].add(parent)
    seen, stack = set(), [tt.vertex_ids[0]]
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(adj[v] - seen)
    assert tt.connected == (seen == set(tt.vertex_ids))


def _count_calls(monkeypatch, targets):
    calls = {name: 0 for _, name in targets}
    for owner, name in targets:
        orig = getattr(owner, name)

        def counted(*args, orig=orig, name=name):
            calls[name] += 1
            return orig(*args)
        monkeypatch.setattr(owner, name, counted)
    return calls


def _read_every_rep(tb) -> None:
    for v in tb.vertices:
        tb.rep(v)
    for v in tb.vertices[1:]:
        tb.edge_rep(v)


def test_tree_build_forms_one_product_per_star_candidate(monkeypatch):
    """Trivial edge group: the build forms no product and no sort_key, and
    star elements are formed once per vertex type, not once per child.  A
    cone candidate's rep costs one product when first read, and none after."""
    _, _, fg = make_fg("z2z2")
    calls = _count_calls(monkeypatch, [(NormalForm, "sort_key"),
                                       (FundamentalGroup, "multiply"),
                                       (FundamentalGroup, "vertex_element")])
    tb = TreeBall(fg, 5)
    assert calls["multiply"] == 0
    # every cone candidate becomes a tree edge; the one leading back to the
    # parent is not in the cone, so it forms no product
    _read_every_rep(tb)
    assert calls["multiply"] == len(tb.vertices) - 1 == 1705
    _read_every_rep(tb)
    assert calls["multiply"] == len(tb.vertices) - 1
    monkeypatch.undo()
    assert calls["sort_key"] == 0
    # a tree vertex meets each of its star parameters once, so the degree of
    # a vertex above the last layer counts its type's parameters; the edge
    # subgroups are formed once as well
    params = {tb.vtype[v]: degree(tb, v) for v in tb.vertices if tb.depth(v) < tb.radius}
    assert len(params) == fg.gog.graph.n_vertices
    edge_subgroups = sum(len(fg.edge_subgroup_elements(k))
                         for k in range(fg.gog.graph.n_edges))
    assert calls["vertex_element"] <= sum(params.values()) + edge_subgroups
    assert calls["vertex_element"] < len(tb.vertices) - 1


@pytest.mark.parametrize("spec,steps,reads", [(SL2Z, 0, 26), (FINITE_EDGED["hnn6"], 4, 2610),
                                              ("f2", 4, 726)], ids=["sl2z", "hnn6", "f2"])
def test_tree_build_with_stable_letters_and_finite_edge_groups_forms_no_keys(
        spec, steps, reads, monkeypatch):
    """Finite vertex groups, with a Z/2 edge group (sl2z), a Z/3 one on a
    loop (hnn6) or only loops (f2): the build forms one product per star
    step of a stable letter and nothing else, and no sort_key.  Reading
    every rep then forms one product per tree edge and a second one for an
    edge that crosses against the orientation A; reading again forms none."""
    _, sd, fg = make_fg(spec)
    calls = _count_calls(monkeypatch, [(NormalForm, "sort_key"),
                                       (FundamentalGroup, "multiply")])
    tb = TreeBall(fg, 5)
    ytypes = [tb.parent_edge(e).ytype for e in tb.vertices[1:]]
    against_a = sum(1 for y in ytypes if not sd.in_tree(y) and y not in sd.orientation)
    assert steps == sum(fg.gog.embedding(y).index_in_target()
                        for y in range(2 * fg.gog.graph.n_edges) if not sd.in_tree(y))
    assert calls["multiply"] == steps
    assert (against_a > 0) == (spec != SL2Z)
    _read_every_rep(tb)
    assert calls["multiply"] - steps == len(tb.vertices) - 1 + against_a == reads
    _read_every_rep(tb)
    assert calls["multiply"] - steps == reads
    monkeypatch.undo()
    assert calls["sort_key"] == 0


@pytest.mark.parametrize("spec", [*ALL_TEXTS.values()], ids=[*ALL_TEXTS])
def test_reps_do_not_depend_on_the_order_of_reads(spec):
    """A rep is formed on first read from the nearest formed ancestor, so
    reading deepest-first forms the same reps as reading in vid order."""
    _, _, fg = make_fg(spec)
    deep, flat = TreeBall(fg, 4), TreeBall(fg, 4)
    vertex_reps = [deep.rep(v) for v in reversed(deep.vertices)][::-1]
    edge_reps = [deep.edge_rep(v) for v in reversed(deep.vertices[1:])][::-1]
    assert vertex_reps == [flat.rep(v) for v in flat.vertices]
    assert edge_reps == [flat.edge_rep(v) for v in flat.vertices[1:]]


def test_deepest_rep_read_first_forms_no_recursion(dinf):
    """The path Z/2 * Z/2 at radius 1,500: the last vertex's rep, read
    first, walks its 1,500 unformed ancestors without recursing."""
    _, _, fg = dinf
    tb = TreeBall(fg, 1500)
    last = tb.vertices[-1]
    assert tb.depth(last) == 1500
    rep = tb.rep(last)
    assert rep.syllable_length == 1500
    assert rep == eager_rep(tb, last)


@pytest.mark.parametrize("spec", [*ALL_TEXTS.values()], ids=[*ALL_TEXTS])
def test_vertices_of_one_cone_type_have_the_same_child_list(spec):
    """A cone type is a vertex type plus the type of its parent edge seen
    from it; above the last layer its ordered child list is fixed."""
    _, _, fg = make_fg(spec)
    tb = TreeBall(fg, 4)
    lists = {}
    for v in tb.vertices:
        if tb.depth(v) == tb.radius:
            continue
        back = None if v == 0 else tb.parent_edge(v).ytype ^ 1
        children = [(e.ytype, e.fresh, e.step) for e in map(tb.parent_edge, tb.children(v))]
        assert lists.setdefault((tb.vtype[v], back), children) == children
    assert lists


# --- the column store against the object-per-vertex oracle --------------------


def _configs(fg):
    """Every star configuration when some vertex group is infinite, else the
    default one: finite stars do not read it."""
    if all(G.is_finite for G in fg.gog.vertex_groups):
        return [TreeBallConfig()]
    return [TreeBallConfig(star_radius=r, star_small=s, star_fresh=f)
            for r in (1, 2) for s in (2, 3) for f in (0, 1, 2)]


def _sample(seq, k, rng):
    seq = list(seq)
    return seq if len(seq) <= k else rng.sample(seq, k)


def _assert_ball_equals_oracle(fg, radius, config, rng):
    tb, ob = TreeBall(fg, radius, config), OracleTreeBall(fg, radius, config)
    n = len(ob.vertices)
    assert len(tb.vertices) == n
    assert [tb.level(k) for k in range(radius + 2)] == [ob.level(k) for k in range(radius + 2)]
    assert list(tb.layer_sizes()) == [len(ob.level(k)) for k in range(radius + 1)]
    for v, o in zip(tb.vertices, ob.vertices):
        t = tb.vtype[v]
        assert (v, t, tb.depth(v), tb.truncated[t], list(tb.children(v))) == \
            (o.vid, o.vtype, o.depth, o.truncated, o.children)
        assert tb.parent[v] == ob.parent[o.vid]
        if o.up is not None:
            e = tb.parent_edge(v)
            assert e == (o.ytype, o.ve, o.step, o.fresh)
            assert (e.ytype, tb.edge_pair(v), e.fresh, e.step) == (o.ytype, o.pair, o.fresh, o.step)
    assert [tb.rep(vid) for vid in range(n)] == [o.rep for o in ob.vertices]
    assert [tb.edge_rep(c) for c in range(1, n)] == [o.edge_rep for o in ob.vertices[1:]]
    vids = _sample(range(n), 60, rng)
    for vid in vids:
        path = set(ob.geodesic(0, vid)) | {0}
        for anc in {*path, *_sample(range(n), 20, rng)}:
            assert tb.in_subtree(vid, anc) == ob.in_subtree(vid, anc), (vid, anc)
    for child in _sample(range(1, n), 25, rng):
        assert tb.split_by_edge(child) == ob.split_by_edge(child)
        for vid in vids:
            assert tb.edge_tree_distance(child, vid) == ob.edge_tree_distance(child, vid)
    for depth in range(radius + 1):
        b = BoundaryApprox(tb, depth)
        for vid in range(n) if n <= 1500 else vids:
            assert b._under(vid) == ob.branches_under(vid, depth), (depth, vid)


@pytest.mark.parametrize("spec", [*ALL_TEXTS.values()], ids=[*ALL_TEXTS])
def test_column_ball_equals_the_object_per_vertex_build(spec):
    """Radii 0-6 and, with an infinite vertex group, every star configuration
    with ``star_radius`` 1-2, ``star_small`` 2-3 and ``star_fresh`` 0-2: the
    columns read the same vertices, parent edges and reps as the oracle's
    records, and the lifted ranges the same ancestry, edge splits, edge
    distances and branch ranges as its pre-order intervals (all pairs on
    small balls, seeded samples on large ones)."""
    _, _, fg = make_fg(spec)
    rng = random.Random(38)
    for config in _configs(fg):
        for radius in range(7):
            _assert_ball_equals_oracle(fg, radius, config, rng)


@pytest.mark.parametrize("spec", [*ALL_TEXTS.values()], ids=[*ALL_TEXTS])
def test_layer_sizes_are_counted_from_the_cone_types(spec):
    """The transfer-matrix counts equal the built levels at depths <= 7, and
    a budget one short of the total stops the build before any vertex."""
    _, _, fg = make_fg(spec)
    tb = TreeBall(fg, 7)
    sizes = list(tb.layer_sizes())
    assert sizes == [len(tb.level(k)) for k in range(8)]
    total = sum(sizes)
    if total > 1:
        with pytest.raises(BudgetExceeded, match=": tree ball: element budget"):
            TreeBall(fg, 7, TreeBallConfig(budget=total - 1))
    assert len(TreeBall(fg, 7, TreeBallConfig(budget=total)).vertices) == total
