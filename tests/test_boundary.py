from __future__ import annotations

import random

import pytest

from amalgam_lab.bass_serre import TreeBall, TreeBallConfig
from amalgam_lab.boundary import (
    BoundaryApprox,
    LimitSetApprox,
    amalgam_check,
    boundary_approx,
    branch_density_check,
    cantor_check,
    classify_direction,
    dist_to_vertex_coset,
    limit_set_approx,
    limit_set_family,
)
from amalgam_lab.corpus import NAMES
from amalgam_lab.errors import DepthTooSmall
from amalgam_lab.fundgroup import FundamentalGroup, NormalForm

from conftest import (
    ALL_TEXTS,
    CHAIN,
    DEAD_ENDS,
    S3_Z4,
    SL2Z,
    eager_rep,
    in_subtree_walk,
    make_fg,
    phi_random,
)


# --- boundary approximations -----------------------------------------------


def test_dinf_two_branches_distance_one(dinf):
    _, _, fg = dinf
    for d in (3, 5, 7):
        b = boundary_approx(fg, d)
        assert len(b) == 2
        assert b.visual_dist(0, 1) == 1.0


def test_z2z3_branch_count_matches_dfs_oracle(z2z3):
    _, _, fg = z2z3
    d = 4
    b = boundary_approx(fg, d)
    # independent count: DFS over the tree ball multiplying out-degrees
    tree = b.tree

    def count(vid, depth):
        if depth == d:
            return 1
        v = tree.vertices[vid]
        return sum(count(c, depth + 1) for c in v.children)

    assert len(b) == count(0, 0) > 0


def test_empty_boundary_for_finite_group(trivial):
    _, _, fg = trivial
    b = boundary_approx(fg, 4)
    assert len(b) == 0


def test_branches_are_immersed_geodesics(z2z3):
    _, _, fg = z2z3
    b = boundary_approx(fg, 5)
    for i, leaf in enumerate(b.leaves):
        assert len(b.tree.root_path(leaf)) == 5
        assert len({b.ancestor(i, k) for k in range(6)}) == 6   # no vertex revisited


def test_basis_partitions_at_every_depth(z2z3):
    _, _, fg = z2z3
    b = boundary_approx(fg, 5)
    tree = b.tree
    for k in range(1, 6):
        level_edges = tree.level(k)
        cells = [b.basis_members(e) for e in level_edges]
        union = set()
        for c in cells:
            assert not (union & c)
            union |= c
        assert union == set(range(len(b)))


def _branch_oracle(tree, depth):
    """The per-branch construction that BoundaryApprox replaced: root paths
    (vids, edges as child vids) extended from the parent's, kept for the
    depth-d vertices in vid order, and each edge's branches found by a scan of
    those paths."""
    paths = [((0,), ())]
    for v in tree.vertices[1:]:
        if v.depth > depth:
            break
        vids, edges = paths[v.up.vid]
        paths.append((vids + (v.vid,), edges + (v.vid,)))
    branches = [p for p in paths if len(p[1]) == depth]
    by_edge = {}
    for i, (_, edges) in enumerate(branches):
        for e in edges:
            by_edge.setdefault(e, []).append(i)
    return branches, by_edge


def _oracle_split(branches, i, j):
    ei, ej = branches[i][1], branches[j][1]
    k = 0
    while k < len(ei) and ei[k] == ej[k]:
        k += 1
    return k


VIEW_CASES = ([(name, 5, 5) for name in NAMES + ("sl2z", "dead-ends")]
              + [("z2z3", 6, d) for d in (4, 5, 6)] + [("z2z3", 3, 5)])


@pytest.mark.parametrize("name,radius,depth", VIEW_CASES)
def test_boundary_view_matches_branch_oracle(name, radius, depth):
    """Every query of the view equals the per-branch tables, also on trees
    deeper than the boundary depth and on one with no branches."""
    _, _, fg = make_fg({"sl2z": SL2Z, "dead-ends": DEAD_ENDS}.get(name, name))
    tree = TreeBall(fg, radius)
    b = BoundaryApprox(tree, depth)
    branches, by_edge = _branch_oracle(tree, depth)
    assert list(b.leaves) == [vids[-1] for vids, _ in branches]
    assert len(b) == len(branches)
    for e in range(len(tree.vertices)):     # the root (0) has no parent edge
        assert b.basis_members(e) == frozenset(by_edge.get(e, ())), e
    for k in range(depth + 1):
        groups = {}
        for i, (vids, _) in enumerate(branches):
            groups.setdefault(vids[k], []).append(i)
        assert list(b.groups_by_prefix(k).items()) == list(groups.items()), k
        for i, (vids, _) in enumerate(branches):
            assert b.ancestor(i, k) == vids[k]
    n = len(branches)
    if n > 100:
        rng = random.Random(1)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(500)]
    else:
        pairs = [(i, j) for i in range(n) for j in range(n)]
    for i, j in pairs:
        assert b.split(i, j) == _oracle_split(branches, i, j), (i, j)
    index = {vids[-1]: i for i, (vids, _) in enumerate(branches)}
    for v in tree.vertices:
        assert b.index_of_leaf(v.vid) == index.get(v.vid)
    if name == "z2z3" and radius == 3:
        assert n == 0 and not b.groups_by_prefix(depth)


@pytest.mark.parametrize("name", NAMES + ("dead-ends",))
def test_basis_members_match_branch_scan(name):
    _, _, fg = make_fg(DEAD_ENDS if name == "dead-ends" else name)
    b = boundary_approx(fg, 5)
    _, by_edge = _branch_oracle(b.tree, 5)
    empty = 0
    for e in range(1, len(b.tree.vertices)):
        scan = frozenset(by_edge.get(e, ()))
        assert b.basis_members(e) == scan
        empty += not scan
    # the root has no parent edge, so no branch passes through one
    assert b.basis_members(0) == frozenset()
    if name == "dead-ends":
        assert empty and len(b)


def test_visual_metric_is_ultrametric(f2):
    _, _, fg = f2
    b = boundary_approx(fg, 5)
    rng = random.Random(3)
    n = len(b)
    for _ in range(500):
        i, j, k = (rng.randrange(n) for _ in range(3))
        assert b.visual_dist(i, k) <= max(b.visual_dist(i, j), b.visual_dist(j, k)) + 1e-12


@pytest.mark.parametrize("name", NAMES + ("sl2z", "dead-ends"))
def test_distinct_branches_separated_below_split(name):
    """Total disconnectedness, which cantor_check takes from the tree: two
    distinct branches part where their root paths do, and the cell of the
    first one's edge there holds it and not the other.  Every ordered pair
    where there are few branches, else a seeded sample."""
    _, _, fg = make_fg({"sl2z": SL2Z, "dead-ends": DEAD_ENDS}.get(name, name))
    b = boundary_approx(fg, 5)
    n = len(b)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    if len(pairs) > 1000:
        rng = random.Random(5)
        pairs = [rng.sample(range(n), 2) for _ in range(1000)]
    for i, j in pairs:
        p_i, p_j = (b.tree.root_path(b.leaves[k]) for k in (i, j))
        s = next(k for k, (u, w) in enumerate(zip(p_i, p_j)) if u != w)
        assert b.split(i, j) == s
        assert b.visual_dist(i, j) >= 2.0 ** (-b.depth)
        cell = b.basis_members(p_i[s])
        assert i in cell and j not in cell


def test_refinement_projects_onto_lower_depth(z2z3):
    _, _, fg = z2z3
    tree = TreeBall(fg, 6)
    b6 = BoundaryApprox(tree, 6)
    b5 = BoundaryApprox(tree, 5)
    prefixes = {b6.ancestor(i, 5) for i in range(len(b6))}
    non_dead = {leaf for leaf in b5.leaves
                if tree.vertices[leaf].children}
    assert prefixes == non_dead


# --- cantor checks ------------------------------------------------------------


def test_cantor_verdicts():
    for name, d, expect in [("z2z3", 6, True), ("dinf", 6, False), ("f2", 5, True)]:
        _, _, fg = make_fg(name)
        v = cantor_check(boundary_approx(fg, d))
        assert v.passed is expect, name
        if name == "dinf":
            assert not v.perfect_at_depth     # fails perfectness, two isolated branches


def _first_unbranched_window(b, window):
    """The per-branch scan cantor_check replaced: (branch, start) of the
    first window of levels with no vertex of >= 2 children, or None."""
    n_children = {v.vid: len(v.children) for v in b.tree.vertices}
    for i in range(len(b)):
        for start in range(0, b.depth - window + 1):
            if not any(n_children[b.ancestor(i, k)] >= 2 for k in range(start, start + window)):
                return i, start
    return None


@pytest.mark.parametrize("name", ["z2z3", "f2", "dinf"])
def test_cantor_windows_match_branch_scan_on_pruned_trees(name):
    """On trees whose branching is cut at random vertices, the top-down window
    flags name the same first failing branch and window start as the scan."""
    _, _, fg = make_fg(name)
    rng = random.Random(5)
    for trial in range(12):
        b = boundary_approx(fg, 6)
        p = trial / 12
        for v in b.tree.vertices:
            if v.depth < b.depth and rng.random() < p:
                v.children = v.children[:1]   # only the window flags read the count
        for window in range(1, b.depth + 2):
            verdict = cantor_check(b, window)
            found = [(w["branch"], w["window_start"]) for w in verdict.witnesses
                     if w["reason"] == "no branching in window"]
            expected = _first_unbranched_window(b, window)
            assert found == ([expected] if expected else []), (trial, window)
            assert verdict.perfect_at_depth is (expected is None)


def test_cantor_check_forms_no_cell_and_walks_no_branch(z2z2, monkeypatch):
    """The tree decides total disconnectedness, so the surrogate forms no
    basis cell and makes no split or ancestor walk."""
    _, _, fg = z2z2
    b = boundary_approx(fg, 6)
    calls = dict.fromkeys(("basis_members", "split", "ancestor"), 0)
    for name in calls:
        orig = getattr(BoundaryApprox, name)

        def counted(self, *args, orig=orig, name=name):
            calls[name] += 1
            return orig(self, *args)
        monkeypatch.setattr(BoundaryApprox, name, counted)
    verdict = cantor_check(b)
    assert verdict.passed and verdict.basis_separates
    assert calls == {"basis_members": 0, "split": 0, "ancestor": 0}


def test_cantor_depth_too_small(dinf):
    _, _, fg = dinf
    with pytest.raises(DepthTooSmall):
        cantor_check(boundary_approx(fg, 2))


# --- limit sets -----------------------------------------------------------------


def test_finite_coset_limit_set_empty(z2z3):
    _, _, fg = z2z3
    b = boundary_approx(fg, 4)
    assert limit_set_approx(b, 0).directions == ()


def test_root_limit_set_avoids_other_factor_side(z2z2):
    _, _, fg = z2z2
    b = boundary_approx(fg, 4)
    m = limit_set_approx(b, 0)
    assert m.directions
    tree = b.tree
    # edges separating the root from the orbit of the other factor's coset:
    # the small-parameter child subtrees hold that orbit
    for c in tree.vertices[0].children:
        if not tree.vertices[c].fresh:
            assert not (set(m.directions) & b.basis_members(c))


def test_limit_set_translate_invariance(z2z2):
    _, _, fg = z2z2
    b = boundary_approx(fg, 4)
    tree = b.tree
    gamma = fg.vertex_element(0, (1, 0))
    child = tree.vertices[0].children[1]
    m1 = limit_set_approx(b, child)
    tv = tree.find_vertex(fg.multiply(gamma, tree.vertices[child].rep),
                          tree.vertices[child].vtype)
    assert tv is not None
    m2 = limit_set_approx(b, tv)
    translated_leaves = set()
    for i in m1.directions:
        leaf = b.leaves[i]
        t = tree.find_vertex(fg.multiply(gamma, tree.vertices[leaf].rep),
                             tree.vertices[leaf].vtype)
        assert t is not None
        translated_leaves.add(t)
    assert translated_leaves == {b.leaves[i] for i in m2.directions}


@pytest.mark.parametrize("name,radius", [("z2z2", 4), ("z2z2", 5), ("zxz2", 6)])
def test_family_builds_boundary_depth_members_empty(name, radius):
    """The family is the non-empty limit_set_approx members in vid order, also
    when the tree reaches past the boundary depth, where every member is
    empty; family_size counts every infinite-type coset vertex of the ball,
    and the empty members would not change the certificate."""
    _, _, fg = make_fg(name)
    b = BoundaryApprox(TreeBall(fg, radius), 4)
    family = limit_set_family(b)
    truncated = [v for v in b.tree.vertices if not fg.gog.vertex_groups[v.vtype].is_finite]
    members = [limit_set_approx(b, v.vid) for v in truncated]
    assert family == [m for m in members if m.directions]
    assert family and any(v.depth >= b.depth for v in truncated)
    assert not any(m.directions for m in members if m.vertex.depth >= b.depth)
    cert = amalgam_check(b, family, seed=3)
    assert cert.family_size == len(truncated) and cert.nonempty_members == len(family)
    assert amalgam_check(b, members, seed=3).to_json() == cert.to_json()


def test_members_have_packet_diameter(z2z2):
    _, _, fg = z2z2
    b = boundary_approx(fg, 5)
    for m in limit_set_family(b):
        if len(m.directions) >= 2:
            diam = max(b.visual_dist(i, j)
                       for i in m.directions for j in m.directions)
            assert diam == 2.0 ** (-m.vertex.depth)


# --- amalgam certificate -----------------------------------------------------------


def test_amalgam_z2z2_passes(z2z2):
    _, _, fg = z2z2
    b = boundary_approx(fg, 5)
    family = limit_set_family(b)
    cert = amalgam_check(b, family, seed=7)
    assert cert.passed, cert.conditions
    diag = cert.conditions["a2_null"]["max_diam_per_tree_distance"]
    for k, v in diag.items():
        assert v <= 2.0 ** (-int(k) + 1)


@pytest.mark.parametrize("star_small", [2, 3])
@pytest.mark.parametrize("name", ALL_TEXTS)
def test_a1_a2_a5_hold_by_construction_on_limit_set_families(name, star_small):
    """(a1), (a2) and (a5) hold on every ``limit_set_family`` whose tree ball
    keeps at least two small star parameters (the proofs are in
    ``amalgam_check``'s docstring), at depths 4-6 and seeds 0-2, 200 pairs each."""
    _, _, fg = make_fg(ALL_TEXTS[name])
    for depth in (4, 5, 6):
        b = boundary_approx(fg, depth, TreeBallConfig(star_small=star_small))
        family = limit_set_family(b)
        for seed in range(3):
            conditions = amalgam_check(b, family, seed=seed, samples=200).conditions
            for c in ("a1_disjoint", "a2_null", "a5_saturated_separation"):
                assert conditions[c]["passed"], (depth, seed, c, conditions[c]["witnesses"])


def test_amalgam_vacuous_for_finite_types(z2z3):
    _, _, fg = z2z3
    b = boundary_approx(fg, 5)
    family = limit_set_family(b)
    assert family == []
    cert = amalgam_check(b, family, seed=7)
    assert cert.passed
    assert cantor_check(b).passed    # the Cantor verdict stands in


def test_amalgam_adversarial_overlap_fails_a1(z2z2):
    _, _, fg = z2z2
    b = boundary_approx(fg, 5)
    family = limit_set_family(b)
    nonempty = [m for m in family if m.directions]
    fake = LimitSetApprox(nonempty[1].vertex,
                          (nonempty[0].directions[0],) + nonempty[1].directions)
    cert = amalgam_check(b, [nonempty[0], fake], seed=7)
    assert not cert.conditions["a1_disjoint"]["passed"]
    assert cert.conditions["a1_disjoint"]["witnesses"]


def _a2_a3_oracle(b, family):
    """(a2) and (a3) by the all-pairs diameter and the subset test per group."""
    d = b.depth
    nonempty = [m for m in family if m.directions]
    witnesses = []
    max_diam_per_k = {}
    for k in range(0, d + 1):
        diams = [
            max((b.visual_dist(i, j) for i in m.directions for j in m.directions),
                default=0.0)
            for m in nonempty if m.vertex.depth >= k
        ]
        max_diam_per_k[k] = max(diams, default=0.0)
        if max_diam_per_k[k] > 2.0 ** (-k + 1):
            witnesses.append({"k": k, "max_diam": max_diam_per_k[k]})
    if not all(max_diam_per_k[k + 1] <= max_diam_per_k[k] for k in range(d)):
        witnesses.append({"reason": "diameters not non-increasing in k"})
    a2 = {
        "passed": not witnesses,
        "witnesses": witnesses[:10],
        "max_diam_per_tree_distance": {str(k): v for k, v in max_diam_per_k.items()},
    }
    witnesses = []
    groups = b.groups_by_prefix(d - 2)
    for m in nonempty:
        dirset = set(m.directions)
        for anc, members in groups.items():
            if set(members) <= dirset:
                witnesses.append({"member": m.label, "prefix_vertex": anc})
    a3 = {"passed": not witnesses, "witnesses": witnesses[:10]}
    return a2, a3


def _on_vertex(b, directions, depth, i=0):
    """A member with the given directions on the i-th tree vertex of a depth."""
    return LimitSetApprox(b.tree.vertices[b.tree.level(depth)[i]], tuple(directions))


def _adversarial_family(b):
    """Members that cover whole prefix groups (in an order other than the
    groups'), nearly cover one, repeat directions, and break the (a2) bound,
    each on its own vertex, by name."""
    groups = list(b.groups_by_prefix(b.depth - 2).values())
    assert len(groups) > 12
    picked = [i for g in (groups[8], groups[1], groups[3]) for i in reversed(g)]
    return {
        "covers-8-1-3": _on_vertex(b, picked, 0),
        "almost-2-with-repeats": _on_vertex(b, groups[2][1:] + groups[2][1:2], 1),
        "covers-5-twice": _on_vertex(b, groups[5] + groups[5], 1, 1),
        "covers-all": _on_vertex(b, range(len(b)), 1, 2),
        "wide-and-deep": _on_vertex(b, (0, 1, len(b) - 1), b.depth - 1),
        "one-direction-twice": _on_vertex(b, (4, 4), b.depth),
        "single": _on_vertex(b, (9,), 2),
    }


@pytest.mark.parametrize("name,depth", [(n, d) for n in ("z2z2", "zxz2", "z2z3")
                                        for d in (4, 5)])
def test_a2_a3_match_oracle_on_real_families(name, depth):
    _, _, fg = make_fg(name)
    b = boundary_approx(fg, depth)
    family = limit_set_family(b)
    cert = amalgam_check(b, family, seed=7)
    assert (cert.conditions["a2_null"], cert.conditions["a3_boundary"]) == \
        _a2_a3_oracle(b, family)


@pytest.mark.parametrize("depth", [4, 5])
def test_a2_a3_match_oracle_on_adversarial_family(z2z2, depth):
    _, _, fg = z2z2
    b = boundary_approx(fg, depth)
    members = _adversarial_family(b)
    family = list(members.values())
    assert len({m.label for m in family}) == len(family)
    cert = amalgam_check(b, family, seed=7, samples=3)
    a2, a3 = _a2_a3_oracle(b, family)
    assert cert.conditions["a2_null"] == a2
    assert cert.conditions["a3_boundary"] == a3
    assert not a2["passed"] and not a3["passed"]
    assert len(a3["witnesses"]) == 10      # the cut falls inside "covers-all"
    assert [w["member"] for w in a3["witnesses"][:5]] == [members[name].label for name in (
        "covers-8-1-3", "covers-8-1-3", "covers-8-1-3", "covers-5-twice", "covers-all")]


def test_a2_counts_a_member_deeper_than_the_depth_at_every_k(z2z2):
    """On a tree deeper than the boundary's depth d, a member on a vertex
    below depth d has tree distance >= k for every k <= d."""
    _, _, fg = z2z2
    b = BoundaryApprox(TreeBall(fg, 5), 4)
    group = list(b.groups_by_prefix(b.depth - 2).values())[1]
    family = [_on_vertex(b, (group[0], group[-1]), 5)]
    a2 = amalgam_check(b, family, seed=7, samples=0).conditions["a2_null"]
    assert a2 == _a2_a3_oracle(b, family)[0]
    assert a2["max_diam_per_tree_distance"]["4"] == 2.0 ** -(b.depth - 2)


def test_a2_diameter_spans_the_least_and_greatest_direction(z2z2):
    """A member's (a2) diameter is read at its least and greatest
    directions, whatever the order and the repeats of its tuple: here its
    first and last direction coincide, but it spans a whole prefix group."""
    _, _, fg = z2z2
    b = boundary_approx(fg, 5)
    group = list(b.groups_by_prefix(b.depth - 2).values())[2]
    family = [_on_vertex(b, (group[1], group[-1], group[0], group[1]), b.depth - 1)]
    a2 = amalgam_check(b, family, seed=7, samples=0).conditions["a2_null"]
    assert a2 == _a2_a3_oracle(b, family)[0]
    assert a2["max_diam_per_tree_distance"]["4"] == 2.0 ** -(b.depth - 2)


def _a5_oracle(b, family, seed, samples):
    """(a5) by the full-family loop: every member is tested for removal and
    for saturation on every sample, with ancestry by walking to the root."""
    tree = b.tree
    nonempty = [m for m in family if m.directions]
    witnesses = []
    checked = 0
    rng = random.Random(seed)
    if len(nonempty) >= 2:
        for _ in range(samples):
            m1, m2 = rng.sample(range(len(nonempty)), 2)
            W1, W2 = nonempty[m1], nonempty[m2]
            z1 = W1.directions[rng.randrange(len(W1.directions))]
            z2 = W2.directions[rng.randrange(len(W2.directions))]
            C1, C2 = W1.vertex.vid, W2.vertex.vid
            if C2 != 0 and not in_subtree_walk(tree, C1, C2):
                side_in, z_in, z_out = C2, z2, z1
            else:
                side_in, z_in, z_out = C1, z1, z2
            cell = set(b.basis_members(side_in))
            removed = 0
            H = set(cell)
            for m in family:
                if not m.directions:
                    continue
                if not in_subtree_walk(tree, m.vertex.vid, side_in):
                    if set(m.directions) & cell:
                        H -= set(m.directions)
                        removed += 1
            checked += 1
            saturated = all(
                set(m.directions) <= H or not (set(m.directions) & H)
                for m in family if m.directions
            )
            ok = saturated and (z_in in H) and (z_out not in H)
            if not ok and len(witnesses) < 10:
                witnesses.append({
                    "pair": [W1.label, W2.label],
                    "edge": side_in - 1,
                    "saturated": saturated,
                    "z_in_ok": z_in in H,
                    "z_out_ok": z_out not in H,
                    "removed_members": removed,
                })
    return {"passed": not witnesses, "witnesses": witnesses[:10],
            "pairs_checked": checked}


def _shared_direction_family(b):
    """The real family, then a second owner for every direction of every
    third member: a copy anchored at the root, which lies outside every
    cell's subtree but the root's, so it must be removed from H wherever it
    meets the cell.  Two straddling members join directions of neighbours."""
    real = limit_set_family(b)
    root = b.tree.vertices[0]
    copies = [LimitSetApprox(root, m.directions) for i, m in enumerate(real) if i % 3 == 0]
    straddle = [LimitSetApprox(real[i + 1].vertex, real[i].directions[:1] + real[i + 1].directions)
                for i in (1, len(real) // 2)]
    return real + copies + straddle


@pytest.mark.parametrize("name,depth", [(n, d) for n in ("z2z2", "zxz2", "z2z3")
                                        for d in (4, 5)])
def test_a5_matches_oracle_on_real_families(name, depth):
    _, _, fg = make_fg(name)
    b = boundary_approx(fg, depth)
    family = limit_set_family(b)
    cert = amalgam_check(b, family, seed=11, samples=40)
    assert cert.conditions["a5_saturated_separation"] == _a5_oracle(b, family, 11, 40)


@pytest.mark.parametrize("depth", [4, 5])
def test_a5_matches_oracle_on_shared_directions(z2z2, depth):
    _, _, fg = z2z2
    b = boundary_approx(fg, depth)
    family = _shared_direction_family(b)
    cert = amalgam_check(b, family, seed=3, samples=60)
    a5 = _a5_oracle(b, family, 3, 60)
    assert not cert.conditions["a1_disjoint"]["passed"]
    assert not a5["passed"]
    assert cert.conditions["a5_saturated_separation"] == a5


def test_amalgam_check_reads_groups_once_and_cells_per_sample(z2z2, monkeypatch):
    _, _, fg = z2z2
    b = boundary_approx(fg, 5)
    family = limit_set_family(b)
    calls = {"groups_by_prefix": 0, "basis_members": 0}
    for name in calls:
        orig = getattr(BoundaryApprox, name)

        def counted(self, arg, orig=orig, name=name):
            calls[name] += 1
            return orig(self, arg)
        monkeypatch.setattr(BoundaryApprox, name, counted)
    samples = 12
    assert amalgam_check(b, family, seed=7, samples=samples).passed
    assert calls["groups_by_prefix"] == 1
    assert 0 < calls["basis_members"] <= samples


def _witness_labels(cert, density) -> int:
    """How many member labels the certificate and the density verdict print."""
    per_witness = {"members": 2, "member": 1, "pair": 2}
    return sum(n for cond in [*cert.conditions.values(), density.to_json()]
               for w in cond["witnesses"] for key, n in per_witness.items() if key in w)


def test_limit_set_labels_are_formed_only_for_witnesses(z2z2, monkeypatch):
    _, _, fg = z2z2
    calls, products = [], []
    display, multiply = NormalForm.display, FundamentalGroup.multiply

    def counted(self):
        calls.append(self)
        return display(self)

    def counted_multiply(self, x, y):
        products.append((x, y))
        return multiply(self, x, y)
    monkeypatch.setattr(NormalForm, "display", counted)
    monkeypatch.setattr(FundamentalGroup, "multiply", counted_multiply)
    # a passing certificate reads the tree only as a combinatorial tree, so
    # neither the build nor any check forms a coset rep
    b = boundary_approx(fg, 5)
    family = limit_set_family(b)
    cert = amalgam_check(b, family, seed=7)
    density = branch_density_check(b, family)
    assert cert.passed and density.status == "pass" and cantor_check(b).passed
    assert products == [] and calls == []
    # members listed twice fail (a1) more often than the ten witnesses kept
    for fam in (family, family + family[:30]):
        calls.clear()
        cert = amalgam_check(b, fam, seed=7)
        density = branch_density_check(b, fam)
        assert len(calls) <= _witness_labels(cert, density)
    assert len(calls) == _witness_labels(cert, density) > 0
    first = family[0].vertex
    assert cert.conditions["a1_disjoint"]["witnesses"][0]["members"][0] == (
        f"{fg.gog.graph.vertex_names[first.vtype]}:{display(eager_rep(b.tree, first.vid))}")


def test_amalgam_depth_too_small(z2z2):
    _, _, fg = z2z2
    b = boundary_approx(fg, 3)
    with pytest.raises(DepthTooSmall):
        amalgam_check(b, [], seed=0)


def _density_failures(b, family):
    """Branch density by brute force: every member direction with no branch
    that no member owns within visual distance 2^(-d+2)."""
    owned = {di for m in family for di in m.directions}
    free = [j for j in range(len(b)) if j not in owned]
    return [{"member": m.label, "branch": di}
            for m in family for di in m.directions
            if not any(b.visual_dist(di, j) <= 2.0 ** (2 - b.depth) for j in free)]


@pytest.mark.parametrize("depth", [4, 5])
@pytest.mark.parametrize("drop", [None, "covers-all"])
def test_branch_density_matches_oracle_on_adversarial_family(z2z2, depth, drop):
    _, _, fg = z2z2
    b = boundary_approx(fg, depth)
    all_but_last = b.groups_by_prefix(depth - 2)[b.ancestor(len(b) // 2, depth - 2)][:-1]
    family = [m for name, m in _adversarial_family(b).items() if name != drop]
    family.append(_on_vertex(b, all_but_last, 2, 1))    # all but the last of a group
    failures = _density_failures(b, family)
    # "covers-all" leaves no free branch; without it the verdict is mixed
    assert (len(failures) == sum(len(m.directions) for m in family)) == (drop is None)
    # witnesses stop at 10, so each member also leads the family once
    for i in range(len(family)):
        rotated = family[i:] + family[:i]
        verdict = branch_density_check(b, rotated)
        assert verdict.status == "fail"
        assert verdict.witnesses == _density_failures(b, rotated)[:10]


def test_branch_density():
    # finite case: vacuous pass
    _, _, fg = make_fg("z2z3")
    b = boundary_approx(fg, 5)
    assert branch_density_check(b, limit_set_family(b)).status == "pass"
    # infinite factors: genuine pass
    _, _, fg = make_fg("z2z2")
    b = boundary_approx(fg, 5)
    assert branch_density_check(b, limit_set_family(b)).status == "pass"
    # degenerate input: no tree edges
    _, _, fg = make_fg("zz")
    b = boundary_approx(fg, 4)
    assert branch_density_check(b, limit_set_family(b)).status == "not_applicable"


# --- classification ------------------------------------------------------------------


@pytest.mark.parametrize("name, ball_radius", [("sl2z", 3), ("z2z3", 3), ("z2z2", 1),
                                               ("s3z4", 3), ("chain", 3)])
def test_dist_to_vertex_coset_matches_brute_force(name, ball_radius):
    """d(x, rep*G_v) against the least d(x, rep*h): over all of a finite G_v,
    and over a backend ball two steps wider than the searched one.  On z2z2
    the x range over ball(1) only: each backend call walks a fresh Z^2 ball.
    s3z4 has a non-abelian vertex group, and chain a finite G_v whose
    members are written with a tail, off the root group."""
    _, _, fg = make_fg({"sl2z": SL2Z, "s3z4": S3_Z4, "chain": CHAIN}.get(name, name))
    tb = TreeBall(fg, 2)
    xs = fg.word_metric_ball(ball_radius).elements
    for v in tb.vertices:
        backend = fg.gog.vertex_groups[v.vtype]
        for x in xs:
            if backend.is_finite:
                members = fg.vertex_subgroup_elements(v.vtype)
            else:
                z = fg.multiply(fg.invert(v.rep), x)
                members = [fg.vertex_element(v.vtype, g)
                           for g in backend.ball(2 * fg.wordlen(z) + 2)]
            expected = min(fg.dist(x, fg.multiply(v.rep, h)) for h in members)
            assert dist_to_vertex_coset(fg, tb, x, v.vid) == expected, (v.vid, x.display())


def test_classify_backend_coset_enumeration(z2z2):
    _, _, fg = z2z2
    tb = TreeBall(fg, 5)
    elems = [fg.vertex_element(0, (k, 0)) for k in range(1, 7)]
    r = classify_direction(fg, tb, elems)
    assert r.kind == "vertex_point"
    assert r.coset_vid == 0


def test_classify_phi_chain_is_branch_point(dinf):
    _, _, fg = dinf
    tb = TreeBall(fg, 10)
    b = BoundaryApprox(tb, 10)
    edges = tb.root_path(b.leaves[0])
    phis = [tb.phi(e) for e in edges]
    r = classify_direction(fg, tb, phis)
    assert r.kind == "branch_point"
    assert len(r.prefix) >= 5


def test_classify_phi_variants_agree(dinf):
    _, _, fg = dinf
    tb = TreeBall(fg, 10)
    b = BoundaryApprox(tb, 10)
    edges = tb.root_path(b.leaves[0])
    rng = random.Random(4)
    canonical = classify_direction(fg, tb, [tb.phi(e) for e in edges])
    randomized = classify_direction(fg, tb, [phi_random(tb, e, rng) for e in edges])
    assert canonical.kind == randomized.kind == "branch_point"
    overlap = min(len(canonical.prefix), len(randomized.prefix))
    assert canonical.prefix[:overlap - 1] == randomized.prefix[:overlap - 1]


def test_classify_alternating_rays_inconclusive(dinf):
    _, _, fg = dinf
    tb = TreeBall(fg, 10)
    b = BoundaryApprox(tb, 10)
    edges1, edges2 = (tb.root_path(leaf) for leaf in b.leaves)
    elems = []
    for i in range(2, 9):
        elems.append(tb.phi(edges1[i]))
        elems.append(tb.phi(edges2[i]))
    r = classify_direction(fg, tb, elems)
    assert r.kind == "inconclusive"


def test_classify_never_returns_both_kinds(z2z2):
    # one call returns exactly one verdict; vertex and branch are exclusive
    _, _, fg = z2z2
    tb = TreeBall(fg, 5)
    elems = [fg.vertex_element(0, (k, 0)) for k in range(1, 6)]
    r = classify_direction(fg, tb, elems)
    assert r.kind in ("vertex_point", "branch_point", "inconclusive")
    assert (r.kind == "vertex_point") == (r.coset_vid is not None)
    assert (r.kind == "branch_point") == bool(r.prefix)


def test_limit_sets_refine_monotonically(z2z2):
    _, _, fg = z2z2
    tree = TreeBall(fg, 6)
    b6 = BoundaryApprox(tree, 6)
    b5 = BoundaryApprox(tree, 5)
    for v in tree.vertices:
        if fg.gog.vertex_groups[v.vtype].is_finite or v.depth > 4:
            continue
        m6 = limit_set_approx(b6, v.vid)
        m5 = limit_set_approx(b5, v.vid)
        prefixes = {b6.ancestor(i, 5) for i in m6.directions}
        coarse = {b5.leaves[i] for i in m5.directions}
        assert prefixes <= coarse
