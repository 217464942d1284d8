"""Text DSL for graphs of groups, plus JSON export/import.

JSON import turns an artifact into the same declarations as the DSL and
assembles them through the same checks; its errors name the JSON entry.

One statement per line, ``#`` starts a comment::

    group G2 cyclic 2
    group G3 table [[0,1,2],[1,2,0],[2,0,1]] labels [e,b,b2]
    group ZZ free_abelian 2
    vertex v1 G2 gens [a]
    vertex v2 G3 gens [b]
    edge e1 v1 -- v2 group trivial embed_fwd {} embed_bwd {}

``embed_fwd`` is i_y into the right-hand vertex group, ``embed_bwd`` is
i_{bar y} into the left-hand one.  Images are given on generators and are
extended multiplicatively (the named elements must generate the edge group).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .backends import FREE, FREE_ABELIAN, GroupBackend
from .errors import (
    AmalgamLabError,
    EdgeGroupInfinite,
    EmbeddingNotInjective,
    GogSyntaxError,
    NotHomomorphism,
    NotInjective,
    UnknownGroupRef,
)
from .gog import GraphOfGroups, TrivialEmbedding, build_graph
from .groups import (TRIVIAL_GROUP, EdgeEmbedding, FiniteGroup, Walk, check_group,
                     check_monomorphism, cyclic_group)
from .jsonio import artifact

_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<arrow>--)
      | (?P<punct>[\[\]{}:,])
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:\^-?[0-9]+)?)
      | (?P<num>-?[0-9]+)
    """,
    re.X,
)


@dataclass
class _Tok:
    kind: str
    text: str
    col: int = 0    # a JSON label has no column


def _tokenize(line: str, lineno: int) -> list[_Tok]:
    out: list[_Tok] = []
    pos = 0
    while pos < len(line):
        if line[pos] == "#":
            break
        m = _TOKEN.match(line, pos)
        if m is None:
            raise GogSyntaxError(f"unexpected character {line[pos]!r}", lineno, pos + 1)
        if m.lastgroup != "ws":
            out.append(_Tok(m.lastgroup, m.group(), pos + 1))
        pos = m.end()
    return out


class _Cursor:
    def __init__(self, toks: list[_Tok], lineno: int):
        self.toks = toks
        self.i = 0
        self.lineno = lineno

    def peek(self) -> _Tok | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self, *kinds: str, text: str | None = None, what: str | None = None) -> _Tok:
        """The next token, checked to be of one of ``kinds`` (if any) and to
        read ``text`` (if given); ``what`` names the expected token in errors."""
        what = what or (repr(text) if text else " or ".join(kinds))
        tok = self.peek()
        if tok is None:
            last = self.toks[-1]
            raise GogSyntaxError(f"unexpected end of line (expected {what})",
                                 self.lineno, last.col + len(last.text))
        if (kinds and tok.kind not in kinds) or (text and tok.text != text):
            raise GogSyntaxError(f"expected {what}, got {tok.text!r}", self.lineno, tok.col)
        self.i += 1
        return tok

    def accept(self, text: str) -> _Tok | None:
        """Consume and return the next token if it reads ``text``."""
        tok = self.peek()
        if tok is None or tok.text != text:
            return None
        self.i += 1
        return tok

    def done(self):
        tok = self.peek()
        if tok is not None:
            raise GogSyntaxError(f"trailing input {tok.text!r}", self.lineno, tok.col)


def _parse_seq(cur: _Cursor, brackets: str, item) -> list:
    """The list ``opening item, item, ... closing`` between the two
    ``brackets``, each item read by ``item(cur)``.  Commas between items are
    optional and a trailing comma is allowed; a line that ends inside the list
    lacks its closing bracket."""
    opening, closing = brackets
    cur.next(text=opening)
    items = []
    while True:
        tok = cur.peek()
        if tok is None or tok.text == closing:
            cur.next(text=closing)
            return items
        items.append(item(cur))
        cur.accept(",")


def _integer(cur: _Cursor) -> int:
    return int(cur.next("num", what="integer").text)


def _name(cur: _Cursor) -> _Tok:
    return cur.next("ident", "num", what="name")


def _map_entry(cur: _Cursor) -> tuple[_Tok, _Tok]:
    key = cur.next("ident", what="element name")
    cur.next(text=":")
    return key, cur.next("ident", what="element name")


def _parse_map(cur: _Cursor) -> list[tuple[_Tok, _Tok]]:
    """``{key: image, ...}`` as token pairs; a key named twice fails at its second entry."""
    entries = _parse_seq(cur, "{}", _map_entry)
    for i, (key, _) in enumerate(entries):
        if any(k.text == key.text for k, _ in entries[:i]):
            raise GogSyntaxError(f"repeated key {key.text!r}", cur.lineno, key.col)
    return entries


def _index(group: FiniteGroup, label: _Tok, at: int | str, which: str) -> int:
    """The element a label names; an unknown label is an error at the label."""
    try:
        return group.index_of(label.text)
    except KeyError as exc:
        raise GogSyntaxError(f"{which}: {exc.args[0]}", at, label.col) from None


# the group kinds of a DSL ``group`` line and of a JSON group spec, each with
# the function that builds and checks its group from the declared values; a
# sized kind takes one integer >= 1
_SIZED = {"cyclic": cyclic_group, FREE: GroupBackend.free, FREE_ABELIAN: GroupBackend.free_abelian}
_DSL_KINDS = {"trivial": lambda: TRIVIAL_GROUP, "table": check_group, **_SIZED}
_JSON_KINDS = {"finite": check_group, FREE: _SIZED[FREE], FREE_ABELIAN: _SIZED[FREE_ABELIAN]}


def _declared_group(kinds: dict, kind, values: tuple, at: int | str,
                    column: int = 0) -> FiniteGroup | GroupBackend:
    """The checked group ``kinds[kind](*values)`` of a DSL ``group`` line or a
    JSON group spec.  Every error names ``at``: a DSL line, with ``column``
    that of the kind, or a JSON entry."""
    try:
        if not isinstance(kind, str) or kind not in kinds:
            raise ValueError(f"unknown group kind {kind!r}")
        if kind in _SIZED and not (isinstance(values[0], int) and values[0] >= 1):
            raise ValueError(f"{kind} {'order' if kind == 'cyclic' else 'rank'} must be >= 1")
        return kinds[kind](*values)
    except (AmalgamLabError, TypeError, ValueError) as exc:
        raise GogSyntaxError(str(exc), at, column) from None


def _fault(error: type[AmalgamLabError], message: str, at: int | str,
           column: int) -> GogSyntaxError:
    """An ``error`` found on a declared value, located at the value's DSL line
    and column, or at its JSON entry."""
    return GogSyntaxError(str(error(message)), at, column)


def _extend_generator_map(edge_group: FiniteGroup, target: FiniteGroup | GroupBackend,
                          gen_images: list, at: int | str, which: str, column: int):
    """Extend generator images, (key, image) label tokens, multiplicatively
    to a total monomorphism.

    ``at`` (a DSL line or a JSON entry), ``which`` (``embed_fwd`` or
    ``embed_bwd``) and ``column`` (that of ``which`` on a DSL line) locate
    its errors; an unknown label is located at its own column.
    """
    if not target.is_finite:
        # Z^n and F_n are torsion-free: only the trivial group embeds, onto e
        identity = edge_group.label(edge_group.identity_index)
        if edge_group.order != 1 or any(
                (key.text, val.text) != (identity, "e") for key, val in gen_images):
            raise _fault(EmbeddingNotInjective, f"{which}: only the trivial group embeds "
                         "into a torsion-free backend, onto e", at, column)
        return TrivialEmbedding(edge_group, target)

    G = target
    named = {_index(edge_group, key, at, which): _index(G, val, at, which)
             for key, val in gen_images}
    # each element's image is the product of the images along its first word
    gens = tuple(named)
    walk = Walk(edge_group.identity_index, gens, edge_group.mul).run()
    images = [G.identity_index]  # by walk position
    for p, i in zip(walk.parent[1:], walk.step[1:]):
        images.append(G.mul(images[p], named[gens[i]]))
    images = dict(zip(walk.elements, images))
    if any(images[a] != fa for a, fa in named.items()):
        raise _fault(EmbeddingNotInjective, f"{which}: generator images are inconsistent",
                     at, column)
    if len(images) != edge_group.order:
        raise GogSyntaxError(
            f"{which} images do not determine the embedding "
            "(named elements do not generate the edge group)", at, column
        )
    try:
        return check_monomorphism(edge_group, G, [images[a] for a in edge_group.elements()])
    except NotInjective as exc:
        raise _fault(EmbeddingNotInjective, f"{which}: {exc}", at, column) from None
    except NotHomomorphism as exc:
        raise _fault(NotHomomorphism, f"{which}: {exc.args[0]}", at, column) from None


def parse_gog(text: str) -> GraphOfGroups:
    """Parse and fully validate a graph of groups from DSL text."""
    groups: dict[str, FiniteGroup | GroupBackend] = {"trivial": TRIVIAL_GROUP}
    vertices: list[tuple] = []   # as _assemble takes them
    edges: list[tuple] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokenize(raw, lineno)
        if not toks:
            continue
        cur = _Cursor(toks, lineno)
        head = cur.next("ident").text

        if head == "group":
            name = cur.next("ident")
            if name.text in groups:
                raise GogSyntaxError(f"duplicate group name {name.text!r}", lineno, name.col)
            kind = cur.next("ident")
            values = ()
            if kind.text == "table":
                table = _parse_seq(cur, "[]", lambda row: _parse_seq(row, "[]", _integer))
                values = (table, [tok.text for tok in _parse_seq(cur, "[]", _name)]
                          if cur.accept("labels") else None)
            elif kind.text in _SIZED:
                values = (_integer(cur),)
            groups[name.text] = _declared_group(_DSL_KINDS, kind.text, values, lineno, kind.col)
            cur.done()

        elif head == "vertex":
            name, ref = cur.next("ident"), cur.next("ident")
            keyword = cur.accept("gens")
            gens = _parse_seq(cur, "[]", _name) if keyword else None
            cur.done()
            vertices.append((name.text, ref.text, gens, lineno,
                             (name.col, ref.col, keyword.col if keyword else 0)))

        elif head == "edge":
            name, left = cur.next("ident"), cur.next("ident")
            cur.next("arrow")
            right = cur.next("ident")
            cur.next(text="group")
            ref = cur.next("ident")
            fwd_at = cur.next(text="embed_fwd")
            fwd = _parse_map(cur)
            bwd_at = cur.next(text="embed_bwd")
            bwd = _parse_map(cur)
            cur.done()
            toks = (name, left, right, ref, fwd_at, bwd_at)
            edges.append((name.text, left.text, right.text, ref.text, fwd, bwd, lineno,
                           tuple(tok.col for tok in toks)))

        else:
            raise GogSyntaxError(f"unknown statement {head!r}", lineno, toks[0].col)

    return _assemble(groups, vertices, edges, len(text.splitlines()) or 1)


def _assemble(groups: dict[str, FiniteGroup | GroupBackend], vertices: list, edges: list,
              end: int | str) -> GraphOfGroups:
    """Check declared vertices and edges and build their graph of groups.

    Vertices are (name, groupref, gens, at, cols), edges (name, left, right,
    groupref, fwd, bwd, at, cols): ``at`` is a DSL line or a JSON entry,
    gens a list of label tokens, and fwd/bwd lists of (key, image) label
    tokens, from edge-group labels to labels of the right and left vertex
    groups.  ``cols`` holds the DSL column of each value's token (of the
    keyword before gens, fwd and bwd; 0 for JSON), a label token its own,
    and each error is located at the value at fault.  ``end`` locates the
    error of an input with no vertices.
    """
    if not vertices:
        raise GogSyntaxError("no vertices declared", end)

    vidx: dict[str, int] = {}
    vgroups: list[FiniteGroup | GroupBackend] = []
    gensets: list[tuple[tuple[str, object], ...]] = []
    for name, ref, gens, at, (name_col, ref_col, gens_col) in vertices:
        if name in vidx:
            raise GogSyntaxError(f"duplicate vertex name {name!r}", at, name_col)
        vidx[name] = len(vidx)
        if ref not in groups:
            raise _fault(UnknownGroupRef, f"unknown group {ref!r}", at, ref_col)
        backend = groups[ref]
        vgroups.append(backend)
        if backend.is_finite:
            labels = gens if gens is not None else [_Tok("ident", lbl)
                                                    for lbl in backend.generator_labels]
            genset = tuple((lbl.text, _index(backend, lbl, at, "gens")) for lbl in labels)
            gen_elems = {e for _, e in genset}
            if backend.subgroup_generated(gen_elems) != frozenset(backend.elements()):
                raise GogSyntaxError("gens do not generate the vertex group", at, gens_col)
        else:
            # backends always use the standard basis for the word metric
            if gens is not None and [lbl.text for lbl in gens] != list(backend.generator_labels):
                raise GogSyntaxError(f"gens of a {backend.kind} group must be its standard "
                                     f"basis {list(backend.generator_labels)}", at, gens_col)
            genset = tuple(zip(backend.generator_labels, backend.generators()))
        gensets.append(genset)

    edge_names: set[str] = set()
    egroups: list[FiniteGroup] = []
    embeddings: list[EdgeEmbedding | TrivialEmbedding] = []
    for name, left, right, ref, fwd, bwd, at, cols in edges:
        name_col, left_col, right_col, ref_col, fwd_col, bwd_col = cols
        if name in edge_names:
            raise GogSyntaxError(f"duplicate edge name {name!r}", at, name_col)
        edge_names.add(name)
        for v, col in ((left, left_col), (right, right_col)):
            if v not in vidx:
                raise _fault(UnknownGroupRef, f"unknown vertex {v!r}", at, col)
        if ref not in groups:
            raise _fault(UnknownGroupRef, f"unknown group {ref!r}", at, ref_col)
        egroup = groups[ref]
        if not egroup.is_finite:
            raise _fault(EdgeGroupInfinite, f"infinite edge group ({egroup.kind} rank "
                         f"{egroup.rank})", at, ref_col)
        egroups.append(egroup)
        embeddings.append(_extend_generator_map(egroup, vgroups[vidx[right]], fwd, at,
                                                "embed_fwd", fwd_col))
        embeddings.append(_extend_generator_map(egroup, vgroups[vidx[left]], bwd, at,
                                                "embed_bwd", bwd_col))

    return GraphOfGroups(
        graph=build_graph(list(vidx), [(e[0], e[1], e[2]) for e in edges]),
        vertex_groups=tuple(vgroups),
        edge_groups=tuple(egroups),
        embeddings=tuple(embeddings),
        generating_sets=tuple(gensets),
    )


# --- JSON round trip --------------------------------------------------------

def gog_to_json(gog: GraphOfGroups) -> dict:
    g = gog.graph

    def group_spec(backend: FiniteGroup | GroupBackend) -> dict:
        if backend.is_finite:
            return {
                "kind": "finite",
                "order": backend.order,
                "labels": list(backend.labels),
                "table": [list(r) for r in backend.table],
            }
        return {"kind": backend.kind, "rank": backend.rank}

    edges = []
    for k in range(g.n_edges):
        fwd = gog.embedding(2 * k)
        bwd = gog.embedding(2 * k + 1)
        eg = gog.edge_groups[k]

        def emb_spec(emb: EdgeEmbedding | TrivialEmbedding) -> dict:
            return {
                "images": [emb.target.label(emb.apply(h)) for h in eg.elements()],
            }

        edges.append({
            "name": g.edge_names[k],
            "left": g.vertex_names[g.alpha[2 * k]],
            "right": g.vertex_names[g.omega[2 * k]],
            "group": group_spec(eg),
            "embed_fwd": emb_spec(fwd),
            "embed_bwd": emb_spec(bwd),
        })

    return artifact("graph_of_groups", {
        "vertices": [
            {
                "name": g.vertex_names[v],
                "group": group_spec(gog.vertex_groups[v]),
                "gens": [lbl for lbl, _ in gog.generating_sets[v]],
            }
            for v in range(g.n_vertices)
        ],
        "edges": edges,
    })


def _field(entry, key: str, kind: type, at: str):
    """``entry[key]``, checked to be a ``kind``; the error names the entry."""
    if not isinstance(entry, dict) or not isinstance(entry.get(key), kind):
        raise GogSyntaxError(f"{key!r} must be a {kind.__name__}", at)
    return entry[key]


def gog_from_json(data: dict) -> GraphOfGroups:
    """Rebuild a ``graph_of_groups`` artifact through the DSL's checks.

    Each group spec becomes a group named after its vertex or edge, and each
    ``images`` list (one image per edge-group element, in index order) a map
    on the edge group's labels.  Errors name the entry, such as ``edge e1``.
    """
    if data.get("kind") != "graph_of_groups":
        raise UnknownGroupRef(f"expected a graph_of_groups artifact, found {data.get('kind')!r}")

    def group_of(entry: dict, at: str) -> FiniteGroup | GroupBackend:
        spec = _field(entry, "group", dict, at)
        kind, values = spec.get("kind"), (spec.get("rank"),)
        if kind == "finite":
            table = _field(spec, "table", list, at)
            values = (table, _field(spec, "labels", list, at))
            if _field(spec, "order", int, at) != len(table):
                raise GogSyntaxError(f"order {spec['order']} but {len(table)} table rows", at)
        return _declared_group(_JSON_KINDS, kind, values, at)

    groups: dict[str, FiniteGroup | GroupBackend] = {}
    vertices = []
    for i, v in enumerate(_field(data, "vertices", list, "artifact")):
        name = _field(v, "name", str, f"vertices[{i}]")
        at = f"vertex {name}"
        # a duplicate entry keeps the first one's group; the assembly rejects it
        groups.setdefault(at, group_of(v, at))
        gens = [_Tok("ident", lbl) for lbl in _field(v, "gens", list, at)]
        vertices.append((name, at, gens, at, (0, 0, 0)))
    edges = []
    for i, e in enumerate(_field(data, "edges", list, "artifact")):
        name = _field(e, "name", str, f"edges[{i}]")
        at = f"edge {name}"
        group = group_of(e, at)
        groups.setdefault(at, group)
        labels = group.labels if group.is_finite else ()
        maps = []
        for key in ("embed_fwd", "embed_bwd"):
            images = _field(_field(e, key, dict, at), "images", list, at)
            if group.is_finite and len(images) != len(labels):
                raise GogSyntaxError(f"{key} names {len(images)} images for "
                                     f"{len(labels)} edge-group elements", at)
            maps.append([(_Tok("ident", k), _Tok("ident", v)) for k, v in zip(labels, images)])
        edges.append((name, _field(e, "left", str, at), _field(e, "right", str, at),
                      at, *maps, at, (0,) * 6))
    return _assemble(groups, vertices, edges, "vertices")
