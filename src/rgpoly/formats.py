"""Text formats for ribbon graphs (.rg), relative plane graphs (.rpg) and
virtual link diagrams (.vld).

All three are line-oriented with ``#`` comments.  Every line reads ``KIND
NAME: TOKEN ...`` (``_directives``): ``vertex``/``edge`` in .rg/.rpg, and
``crossing``/``arc``/``orient`` in .vld, where ``ends=`` takes four names
(itself and the bare tokens after it) and crossing c's dart h is named
``c.h``; ``orient ARC: +`` runs the arc's strand from the arc's first end,
and the orient lines on one strand must agree.  A .vld file may instead
hold only ``gauss CODE`` lines; the last one is read.  Text a serializer
writes is a fixed point: it parses to a graph or diagram that serializes
to the same text.

Parsers raise ParseError with the offending line; structural validation
errors (genus, degree, matchings) propagate from the constructors.
"""

from __future__ import annotations

import re

from .errors import MalformedCode, MalformedDiagram, ParseError
from . import poly
from .links import VirtualLinkDiagram, realize_gauss_code
from .planemap import MapEdge, PlaneMap, RelPlaneGraph
from .ribbon import RibbonGraph, make_edge


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _fail(lineno: int, msg: str):
    raise ParseError(f"line {lineno}: {msg}")


_KEYVAL = re.compile(r"(\w+)=(\S+)")


def _split_fields(tokens: list):
    """Separate positional tokens from key=value options."""
    positional, options = [], {}
    for tok in tokens:
        m = _KEYVAL.fullmatch(tok)
        if m:
            options[m.group(1)] = m.group(2)
        else:
            positional.append(tok)
    return positional, options


def _parse_weight(text: str, lineno: int) -> poly.Polynomial:
    try:
        return poly.parse(text)
    except ParseError as exc:
        _fail(lineno, f"bad weight expression: {exc}")


def _parse_sign(text: str, lineno: int) -> int:
    if text not in ("+", "-"):
        _fail(lineno, f"bad sign {text!r}")
    return 1 if text == "+" else -1


def _directives(text: str, kinds: tuple):
    """Yield (lineno, kind, name, tokens) per ``KIND NAME: TOKEN ...`` line,
    where KIND is one of ``kinds``."""
    for lineno, line in _lines(text):
        head, colon, body = line.partition(":")
        head = head.split()
        if not colon or len(head) != 2 or head[0] not in kinds:
            _fail(lineno, f"expected '{'/'.join(kinds)} NAME: …'")
        yield lineno, head[0], head[1], body.split()


def _map_lines(text: str, vertices: list):
    """Read the vertex and edge lines of a .rg or .rpg file, in file order.

    Vertex rotations are appended to ``vertices``; each edge line is
    yielded as (lineno, name, ends, options).
    """
    for lineno, kind, name, tokens in _directives(text, ("vertex", "edge")):
        if kind == "vertex":
            vertices.append(tuple(tokens))
            continue
        positional, options = _split_fields(tokens)
        if len(positional) != 2:
            _fail(lineno, "edge needs exactly two half-edge names")
        yield lineno, name, tuple(positional), options


def _build(cls, vertices, edges):
    try:
        return cls(vertices, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _vertex_lines(M) -> list[str]:
    return [f"vertex v{i}: " + " ".join(str(h) for h in cycle)
            for i, cycle in enumerate(M.vertices)]


def _weight_options(label: str, x: poly.Polynomial, y: poly.Polynomial) -> str:
    """The x=/y= options of the weights that differ from the default x_label,
    y_label, compared as canonical text (which ``poly.parse`` inverts), so no
    name is registered."""
    out = ""
    for name, w in ("x", x), ("y", y):
        text = w.canonical()
        if text != f"{name}_{label}":
            out += f" {name}={text.replace(' ', '')}"
    return out


# -- ribbon graphs (.rg) ----------------------------------------------


def parse_ribbon(text: str) -> RibbonGraph:
    vertices = []
    edges = []
    for lineno, name, ends, options in _map_lines(text, vertices):
        sign = _parse_sign(options.pop("sign", "+"), lineno)
        x = _parse_weight(options.pop("x"), lineno) if "x" in options else None
        y = _parse_weight(options.pop("y"), lineno) if "y" in options else None
        if options:
            _fail(lineno, f"unknown options {sorted(options)}")
        edges.append(make_edge(*ends, sign=sign, label=name, x=x, y=y))
    return _build(RibbonGraph, vertices, edges)


def serialize_ribbon(R: RibbonGraph) -> str:
    out = _vertex_lines(R)
    for e in R.edges:
        sign = "+" if e.sign > 0 else "-"
        out.append(f"edge {e.label}: {e.ends[0]} {e.ends[1]} sign={sign}"
                   + _weight_options(e.label, e.x, e.y))
    return "\n".join(out) + "\n"


# -- relative plane graphs (.rpg) -------------------------------------


def parse_rpg(text: str) -> RelPlaneGraph:
    vertices = []
    edges = []
    zero = set()
    weights = {}
    signs = {}
    for lineno, name, ends, options in _map_lines(text, vertices):
        ekind = options.pop("kind", "regular")
        if ekind not in ("regular", "zero"):
            _fail(lineno, f"bad kind {ekind!r}")
        idx = len(edges)
        edges.append(MapEdge(ends, name))
        if ekind == "zero":
            if options:
                _fail(lineno, "a zero edge takes no weights or sign")
            zero.add(idx)
            continue
        x = _parse_weight(options.pop("x"), lineno) if "x" in options \
            else poly.var(f"x_{name}")
        y = _parse_weight(options.pop("y"), lineno) if "y" in options \
            else poly.var(f"y_{name}")
        weights[idx] = (x, y)
        if "sign" in options:
            signs[idx] = _parse_sign(options.pop("sign"), lineno)
        if options:
            _fail(lineno, f"unknown options {sorted(options)}")
    return RelPlaneGraph(_build(PlaneMap, vertices, edges), zero, weights, signs)


def serialize_rpg(G: RelPlaneGraph) -> str:
    out = _vertex_lines(G.map)
    for i, e in enumerate(G.map.edges):
        line = f"edge {e.label}: {e.ends[0]} {e.ends[1]}"
        if i in G.zero:
            out.append(line + " kind=zero")
            continue
        line += " kind=regular"
        if i in G.signs:
            line += f" sign={'+' if G.signs[i] > 0 else '-'}"
        out.append(line + _weight_options(e.label, *G.weights[i]))
    return "\n".join(out) + "\n"


# -- virtual link diagrams (.vld) -------------------------------------


def parse_vld(text: str) -> VirtualLinkDiagram:
    lines = [line for _, line in _lines(text)]
    codes = [line[len("gauss"):].strip() for line in lines if line.startswith("gauss")]
    if codes:
        if len(codes) < len(lines):
            raise ParseError("a gauss line excludes crossing/arc/orient lines")
        try:
            return realize_gauss_code(codes[-1])
        except MalformedCode as exc:
            raise ParseError(str(exc)) from exc

    vertices, kinds, over, index = [], {}, {}, {}
    arcs = []                # (name, (cname, end), (cname, end))
    orients = []             # (arc name, "+" | "-")
    for lineno, kind, name, tokens in _directives(text, ("crossing", "arc", "orient")):
        if kind == "crossing":
            options, key = {}, None
            for tok in tokens:
                k, eq, value = tok.partition("=")
                if eq and k in ("kind", "ends", "over"):
                    key = k
                    options[key] = [value]
                elif not eq and key == "ends":      # ends= takes four names
                    options[key].append(tok)
                else:
                    _fail(lineno, f"unexpected token {tok!r}")
            ckind = options.get("kind", [None])[0]
            ends = options.get("ends", [])
            pair = options["over"][0].split(",") if "over" in options else None
            if ckind not in ("classical", "virtual"):
                _fail(lineno, f"bad crossing kind {ckind!r}")
            if len(ends) != 4:
                _fail(lineno, "crossing needs ends=<h1> <h2> <h3> <h4>")
            if pair is not None and len(pair) != 2:
                _fail(lineno, "over needs two comma-separated ends")
            index[name] = ci = len(vertices)
            vertices.append(tuple(f"{name}.{h}" for h in ends))
            kinds[ci] = ckind
            if pair is not None:
                over[ci] = frozenset(f"{name}.{h}" for h in pair)
        elif kind == "arc":
            if len(tokens) != 2 or any("." not in r for r in tokens):
                _fail(lineno, "arc needs two <crossing>.<end> references")
            arcs.append((name, *(r.split(".", 1) for r in tokens)))
        else:
            flag = " ".join(tokens)
            if flag not in ("+", "-"):
                _fail(lineno, f"bad orientation {flag!r}")
            orients.append((name, flag))

    edges = []
    for name, (ca, ha), (cb, hb) in arcs:
        for c in (ca, cb):
            if c not in index:
                raise ParseError(f"arc {name!r} references unknown crossing {c!r}")
        edges.append(MapEdge((f"{ca}.{ha}", f"{cb}.{hb}"), name))
    L = VirtualLinkDiagram(_build(PlaneMap, vertices, edges), kinds, over, None, 0)
    if not orients:
        return L
    first_end = {e.label: e.ends[0] for e in edges}
    for name, _ in orients:
        if name not in first_end:
            raise ParseError(f"orient references unknown arc {name!r}")
    comps = L.strand_components()
    # "+": the arc runs from its first end, an out dart; a strand's even
    # positions are out darts when it runs forward
    place = {d: (si, i % 2 == 0) for si, comp in enumerate(comps) for i, d in enumerate(comp)}
    forward = {}             # strand -> (runs forward, the arc that says so)
    for name, flag in orients:
        si, even = place[first_end[name]]
        runs = even == (flag == "+")
        if forward.setdefault(si, (runs, name))[0] != runs:
            raise ParseError(f"orient {name!r} contradicts orient "
                             f"{forward[si][1]!r} on the same strand")
    # the orientations are not validated, so the diagram is built only once
    L.orientations = {d: (i % 2 == 0) == forward[si][0]
                      for si, comp in enumerate(comps) if si in forward
                      for i, d in enumerate(comp)}
    return L


def serialize_vld(L: VirtualLinkDiagram) -> str:
    """Crossing ci is named c{ci}; its darts are written <end> if all are
    named c{ci}.<end>, as ``parse_vld`` names them.  A strand is oriented by
    its lowest-index arc: "+" when that arc's first end is an out dart."""
    if L.free_loops:
        raise MalformedDiagram("free loops cannot be serialized; use a gauss line")
    M = L.map
    out = []
    end = {}
    for ci, cycle in enumerate(M.vertices):
        prefix = f"c{ci}."
        names = {h: str(h) for h in cycle}
        if all(n.startswith(prefix) for n in names.values()):
            names = {h: n[len(prefix):] for h, n in names.items()}
        end.update(names)
        line = f"crossing c{ci}: kind={L.kinds[ci]} ends={' '.join(names.values())}"
        if ci in L.over:
            o = [names[h] for h in cycle if h in L.over[ci]]
            line += f" over={o[0]},{o[1]}"
        out.append(line)
    for e in M.edges:
        out.append(f"arc {e.label}: "
                   + " ".join(f"c{M.vertex_of(h)}.{end[h]}" for h in e.ends))
    if L.orientations is not None:
        strand = {d: si for si, comp in enumerate(L.strand_components()) for d in comp}
        first = {}
        for e in M.edges:
            first.setdefault(strand[e.ends[0]], e)
        for e in first.values():
            is_out = L.orientations.get(e.ends[0])
            if is_out is not None:
                out.append(f"orient {e.label}: {'+' if is_out else '-'}")
    return "\n".join(out) + "\n"
