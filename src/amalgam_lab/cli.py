"""Command-line front end.

Exit codes: 0 on success/pass, 2 when the tool ran but a verified property
failed (the report is still written), 1 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import corpus
from .bass_serre import TreeBall, TreeBallConfig, tiling_tree
from .boundary import (
    amalgam_check,
    boundary_approx,
    branch_density_check,
    cantor_check,
    classify_direction,
    limit_set_family,
)
from .dsl import gog_from_json, gog_to_json, parse_gog
from .errors import AmalgamLabError, Inconclusive
from .fundgroup import FundamentalGroup, abelianization, emit_presentation
from .gog import is_non_elementary, elementary_collapse, spanning_tree
from .jsonio import dumps, emit, load_artifact
from .separation import ends_estimate, verify_cayley_separation, verify_K_construction


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


class _UsageError(Exception):
    pass


def _require(args, *names):
    """Flags that computation needs but --from json re-emission does not."""
    for name in names:
        if getattr(args, name) is None:
            raise _UsageError(f"--{name.replace('_', '-')} is required")


def _load_gog(args):
    """The input graph of groups: the artifact ``main`` loaded for --from json,
    a corpus input or a .gog file."""
    if args.from_json == "json":
        return gog_from_json(args.artifact)
    if args.input.startswith("corpus:"):
        return parse_gog(corpus.text(args.input.split(":", 1)[1]))
    with open(args.input) as fh:
        return parse_gog(fh.read())


def _tree_config(args) -> TreeBallConfig:
    return TreeBallConfig(
        star_radius=args.star_radius,
        star_small=args.star_small,
        star_fresh=args.star_fresh,
        budget=args.tree_budget,
    )


def _add_common(p: argparse.ArgumentParser, emit_choices=("text", "json"),
                budget: bool = False, tree: bool = False):
    """Flags every subcommand takes; ``budget`` and ``tree`` add the element
    budget and the tree truncation flags for subcommands that use them."""
    p.add_argument("input", help="path to a .gog file, or corpus:NAME")
    p.add_argument("--from", dest="from_json", default=None, metavar="FORMAT",
                   choices=["json"],
                   help="treat INPUT as a previously emitted JSON artifact")
    p.add_argument("--emit", default=emit_choices[0], choices=list(emit_choices))
    p.add_argument("--output", default=None, help="write the artifact here")
    p.add_argument("--seed", type=int, default=0)
    if budget:
        p.add_argument("--budget", type=int, default=2_000_000,
                       help="element budget of Cayley balls, backend balls and the wordlen walk; "
                            "it also caps the pairs that verify-k measures for diam(I_3/2)")
    if tree:
        p.add_argument("--star-radius", type=int, default=2)
        p.add_argument("--star-small", type=int, default=3)
        p.add_argument("--star-fresh", type=int, default=2)
        p.add_argument("--tree-budget", type=int, default=200_000)


def _finish(args, payload: dict, text_lines: list[str], argv, failed: bool) -> int:
    if args.emit == "json":
        emit(dumps(payload), args.output, argv)
    else:
        emit("\n".join(text_lines) + "\n", args.output, argv)
    return 2 if failed else 0


def _fg(args) -> FundamentalGroup:
    gog = _load_gog(args)
    return FundamentalGroup(gog, spanning_tree(gog), ball_budget=args.budget)


# --- subcommand handlers ----------------------------------------------------


def _cmd_validate(args, argv) -> int:
    gog = _load_gog(args)
    verdict = is_non_elementary(gog)
    g = gog.graph
    payload = gog_to_json(gog)
    payload["classification"] = {
        "verdict": verdict.verdict,
        "case": getattr(verdict, "case", None),
        "sequence": list(getattr(verdict, "sequence", ())),
    }
    lines = [
        f"vertices: {g.n_vertices} ({', '.join(g.vertex_names)})",
        f"edges:    {g.n_edges} ({', '.join(g.edge_names) if g.n_edges else '-'})",
        "vertex groups: " + ", ".join(
            f"{g.vertex_names[v]}={_group_desc(gog.vertex_groups[v])}"
            for v in range(g.n_vertices)),
        "edge groups:   " + (", ".join(
            f"{g.edge_names[k]}=order {gog.edge_groups[k].order}"
            for k in range(g.n_edges)) if g.n_edges else "-"),
        f"classification: {verdict.verdict}"
        + (f" (case {verdict.case})" if hasattr(verdict, "case") else "")
        + (f" via {list(verdict.sequence)}" if hasattr(verdict, "sequence") else ""),
    ]
    return _finish(args, payload, lines, argv, failed=False)


def _group_desc(backend) -> str:
    if backend.is_finite:
        return f"finite order {backend.order}"
    return f"{backend.kind} rank {backend.rank}"


def _cmd_collapse(args, argv) -> int:
    gog = _load_gog(args)
    if args.edge is None:
        verdict = is_non_elementary(gog)
        payload = {
            "schema_version": 1,
            "kind": "collapse_decision",
            "verdict": verdict.verdict,
            "case": getattr(verdict, "case", None),
            "sequence": list(getattr(verdict, "sequence", ())),
        }
        lines = [f"{verdict.verdict}"
                 + (f" case {verdict.case}" if hasattr(verdict, "case") else "")
                 + (f" sequence {list(verdict.sequence)}" if hasattr(verdict, "sequence") else "")]
        return _finish(args, payload, lines, argv, failed=False)
    collapsed = elementary_collapse(gog, args.edge)
    payload = gog_to_json(collapsed)
    g = collapsed.graph
    lines = [f"collapsed {args.edge}: now {g.n_vertices} vertices, {g.n_edges} edges"]
    return _finish(args, payload, lines, argv, failed=False)


def _cmd_presentation(args, argv) -> int:
    gog = _load_gog(args)
    p = emit_presentation(gog, spanning_tree(gog))
    rank, torsion = abelianization(p)
    payload = {
        "schema_version": 1,
        "kind": "presentation",
        "generators": list(p.generators),
        "relators": [list(r) for r in p.relators],
        "relator_words": p.relator_strings(),
        "abelianization": {"free_rank": rank, "torsion": list(torsion)},
    }
    if args.emit == "gap":
        lines = [
            "F := FreeGroup(" + ", ".join(f'"{g}"' for g in p.generators) + ");",
        ]
        for i, g in enumerate(p.generators):
            lines.append(f"{g} := F.{i + 1};;")
        lines.append("rels := [" + ", ".join(p.relator_strings()) + "];")
        lines.append("G := F / rels;")
    else:
        lines = ["generators: " + ", ".join(p.generators),
                 "relators:   " + (", ".join(p.relator_strings()) or "(none)"),
                 f"abelianization: free rank {rank}, torsion {list(torsion)}"]
    return _finish(args, payload, lines, argv, failed=False)


def _cmd_tree_ball(args, argv) -> int:
    _require(args, "radius")
    fg = _fg(args)
    tb = TreeBall(fg, args.radius, _tree_config(args))
    g = fg.gog.graph
    payload = {
        "schema_version": 1,
        "kind": "tree_ball",
        "radius": args.radius,
        "n_vertices": len(tb.vertices),
        "n_edges": len(tb.edges),
        "vertices": [
            {
                "id": v.vid, "type": g.vertex_names[v.vtype], "rep": v.rep.display(),
                "depth": v.depth, "truncated_star": v.truncated,
                "parent_edge": v.parent_edge,
            }
            for v in tb.vertices
        ],
        "edges": [
            {
                "id": e.eid, "pair": g.edge_names[e.pair], "rep": e.rep.display(),
                "parent": e.parent, "child": e.child,
            }
            for e in tb.edges
        ],
    }
    if g.n_edges > 0:
        tt = tiling_tree(tb)
        payload["tiling_tree"] = {
            "vertices": list(tt.vertex_ids),
            "edges": list(tt.edge_ids),
            "connected": tt.connected,
        }
    if args.emit == "dot":
        lines = ["graph tree_ball {"]
        for v in tb.vertices:
            lines.append(f'  v{v.vid} [label="{g.vertex_names[v.vtype]}:{v.rep.display()}"];')
        for e in tb.edges:
            lines.append(f'  v{e.parent} -- v{e.child} [label="{g.edge_names[e.pair]}"];')
        lines.append("}")
    else:
        lines = [f"radius {args.radius}: {len(tb.vertices)} vertices, {len(tb.edges)} edges",
                 "|V| - |E| = " + str(len(tb.vertices) - len(tb.edges))]
    return _finish(args, payload, lines, argv, failed=False)


def _cmd_cayley_ball(args, argv) -> int:
    _require(args, "radius")
    fg = _fg(args)
    ball = fg.word_metric_ball(args.radius)
    gs = fg.generating_set()
    adjacency = [ball.neighbors(i) for i in range(len(ball))]
    payload = {
        "schema_version": 1,
        "kind": "cayley_ball",
        "radius": args.radius,
        "size": len(ball),
        "layer_sizes": list(ball.layer_sizes),
        "generators": list(gs.step_labels),
        "elements": [x.display() for x in ball.elements],
        "adjacency": adjacency,
    }
    if args.emit == "dot":
        lines = ["graph cayley_ball {"]
        for i, x in enumerate(ball.elements):
            lines.append(f'  n{i} [label="{x.display()}"];')
        seen = set()
        for i, row in enumerate(adjacency):
            for lbl, j in row:
                if (j, i) not in seen:
                    seen.add((i, j))
                    lines.append(f'  n{i} -- n{j} [label="{lbl}"];')
        lines.append("}")
    else:
        lines = [f"radius {args.radius}: {len(ball)} elements, layers {list(ball.layer_sizes)}"]
    return _finish(args, payload, lines, argv, failed=False)


def _cmd_separate(args, argv) -> int:
    _require(args, "radius")
    report = verify_cayley_separation(_fg(args), ball_radius=args.radius,
                                      samples=args.samples, R=args.R, seed=args.seed)
    lines = [
        f"cayley-separation R={args.R}: {'holds' if report.holds else 'FAILS'}",
        f"pairs tested: {report.witness_pairs_tested}, not applicable: {report.not_applicable}",
    ]
    if report.failures:
        lines.append(f"failures: {len(report.failures)} (first: {report.failures[0]})")
    return _finish(args, report.to_json(), lines, argv, failed=not report.holds)


def _cmd_verify_k(args, argv) -> int:
    _require(args, "radius")
    report = verify_K_construction(_fg(args), ball_radius=args.radius,
                                   edges_sampled=args.edges, seed=args.seed,
                                   R_probe=args.R_probe)
    lines = [
        f"K-construction: {'holds' if report.holds else 'FAILS'}",
        f"diam(P)={report.details['diam_P']}, worst R0={report.details['worst_R0']}, "
        f"bound={report.details['diam_I_3/2']}, probe edges={report.details['probe_edges']}",
    ]
    return _finish(args, report.to_json(), lines, argv, failed=not report.holds)


def _cmd_ends(args, argv) -> int:
    _require(args, "radii")
    fg = _fg(args)
    radii = [int(r) for r in args.radii.split(",")]
    try:
        report = ends_estimate(fg, radii, margin=args.margin)
        payload = report.to_json()
        lines = [f"ends: {report.verdict} (counts {list(report.counts)} at radii {list(report.radii)})"]
        return _finish(args, payload, lines, argv, failed=False)
    except Inconclusive as exc:
        payload = {"schema_version": 1, "kind": "ends_report",
                   "verdict": "inconclusive", "error": str(exc)}
        return _finish(args, payload, [f"ends: inconclusive ({exc})"], argv, failed=True)


def _cmd_boundary(args, argv) -> int:
    _require(args, "depth")
    fg = _fg(args)
    b = boundary_approx(fg, args.depth, _tree_config(args))
    payload = {
        "schema_version": 1,
        "kind": "boundary_approx",
        "depth": args.depth,
        "branch_count": len(b),
        "degenerate": fg.gog.graph.n_edges == 0,
        "branches": [
            {"leaf_rep": b.tree.vertices[leaf].rep.display(), "edges": b.tree.root_path(leaf)}
            for leaf in b.leaves
        ],
    }
    lines = [f"depth {args.depth}: {len(b)} branches"
             + (" (degenerate: no tree edges)" if fg.gog.graph.n_edges == 0 else "")]
    return _finish(args, payload, lines, argv, failed=False)


def _cmd_amalgam_check(args, argv) -> int:
    _require(args, "depth")
    fg = _fg(args)
    b = boundary_approx(fg, args.depth, _tree_config(args))
    family = limit_set_family(b)
    cert = amalgam_check(b, family, seed=args.seed, samples=args.samples)
    density = branch_density_check(b, family)
    cantor = cantor_check(b)
    payload = cert.to_json()
    payload["branch_density"] = density.to_json()
    payload["cantor"] = cantor.to_json()
    failed = not cert.passed or density.status == "fail"
    lines = [f"amalgam-check depth {args.depth}: {'PASS' if not failed else 'FAIL'}"]
    for name, cond in cert.conditions.items():
        lines.append(f"  {name}: {'pass' if cond['passed'] else 'fail'}")
    lines.append(f"  branch_density: {density.status}")
    lines.append(f"  cantor_surrogate: {'pass' if cantor.passed else 'fail'}")
    return _finish(args, payload, lines, argv, failed=failed)


def _cmd_classify(args, argv) -> int:
    if args.depth < 0:
        raise ValueError(f"depth must be >= 0, got {args.depth}")
    fg = _fg(args)
    tb = TreeBall(fg, args.depth, _tree_config(args))
    with open(args.words_json) as fh:
        data = json.load(fh)
    elements = [fg.evaluate_word(w) for w in data["words"]]
    result = classify_direction(fg, tb, elements, r_bound=args.r_bound)
    lines = [f"classification: {result.kind}"
             + (f" at {result.coset_label}" if result.coset_label else "")]
    return _finish(args, result.to_json(), lines, argv, failed=False)


def build_parser() -> _Parser:
    root = _Parser(prog="amalgam-lab",
                   description="Bass-Serre theory toolkit at desk scale")
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a graph of groups")
    _add_common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("collapse", help="elementary collapse / non-elementarity decision")
    _add_common(p)
    p.add_argument("--edge", default=None, help="edge to collapse, NAME or ~NAME for its reverse "
                   "(omit to decide)")
    p.set_defaults(func=_cmd_collapse)

    p = sub.add_parser("presentation", help="emit the defining presentation")
    _add_common(p, emit_choices=("text", "json", "gap"))
    p.set_defaults(func=_cmd_presentation)

    p = sub.add_parser("tree-ball", help="finite portion of the Bass-Serre tree")
    _add_common(p, emit_choices=("text", "json", "dot"), budget=True, tree=True)
    p.add_argument("--radius", type=int, default=None)
    p.set_defaults(func=_cmd_tree_ball)

    p = sub.add_parser("cayley-ball", help="exact word-metric ball")
    _add_common(p, emit_choices=("text", "json", "dot"), budget=True)
    p.add_argument("--radius", type=int, default=None)
    p.set_defaults(func=_cmd_cayley_ball)

    p = sub.add_parser("separate", help="edge-coset separation suite")
    _add_common(p, emit_choices=("json", "text"), budget=True)
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--R", type=int, default=1)
    p.add_argument("--samples", type=int, default=50)
    p.set_defaults(func=_cmd_separate)

    p = sub.add_parser("verify-k", help="K-construction separation suite")
    _add_common(p, emit_choices=("json", "text"), budget=True)
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--edges", type=int, default=20)
    p.add_argument("--R-probe", type=int, default=None, dest="R_probe")
    p.set_defaults(func=_cmd_verify_k)

    p = sub.add_parser("ends", help="ends-count estimator")
    _add_common(p, emit_choices=("json", "text"), budget=True)
    p.add_argument("--radii", default=None, help="comma-separated radii, e.g. 4,6,8")
    p.add_argument("--margin", type=int, default=3)
    p.set_defaults(func=_cmd_ends)

    p = sub.add_parser("boundary", help="depth-d boundary approximation")
    _add_common(p, emit_choices=("json", "text"), budget=True, tree=True)
    p.add_argument("--depth", type=int, default=None)
    p.set_defaults(func=_cmd_boundary)

    p = sub.add_parser("amalgam-check", help="dense-amalgam certificate")
    _add_common(p, emit_choices=("json", "text"), budget=True, tree=True)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--samples", type=int, default=20)
    p.set_defaults(func=_cmd_amalgam_check)

    p = sub.add_parser("classify", help="classify a direction sample")
    _add_common(p, emit_choices=("json", "text"), budget=True, tree=True)
    p.add_argument("--depth", type=int, default=6, help="tree ball radius")
    p.add_argument("--words-json", required=True,
                   help='JSON file {"words": [["a","b"], ...]}')
    p.add_argument("--r-bound", type=int, default=4)
    p.set_defaults(func=_cmd_classify)

    return root


# artifact kinds each subcommand emits; a --from json input of such a kind is
# passed through and re-emitted verbatim, checking only kind and schema_version
_EMITTED_KINDS = {
    "validate": ("graph_of_groups",),
    "collapse": ("graph_of_groups", "collapse_decision"),
    "presentation": ("presentation",),
    "tree-ball": ("tree_ball",),
    "cayley-ball": ("cayley_ball",),
    "separate": ("separation_report",),
    "verify-k": ("separation_report",),
    "ends": ("ends_report",),
    "boundary": ("boundary_approx",),
    "amalgam-check": ("amalgam_certificate",),
    "classify": ("classification",),
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.from_json == "json":
            args.artifact = load_artifact(args.input)
            kind = args.artifact["kind"]
            if kind != "graph_of_groups" and kind in _EMITTED_KINDS.get(args.command, ()):
                emit(dumps(args.artifact), args.output, argv)
                return 0
        return args.func(args, argv)
    except (_UsageError, AmalgamLabError, FileNotFoundError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
