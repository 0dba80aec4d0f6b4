"""Text formats for ribbon graphs (.rg), relative plane graphs (.rpg) and
virtual link diagrams (.vld).

All three are line-oriented with ``#`` comments.  Parsers raise ParseError
with the offending line; structural validation errors (genus, degree,
matchings) propagate from the constructors.
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


def _split_fields(body: str):
    """Separate positional tokens from key=value options."""
    positional, options = [], {}
    for tok in body.split():
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


def _map_lines(text: str, vertices: list):
    """Read the vertex and edge lines of a .rg or .rpg file, in file order.

    Vertex rotations are appended to ``vertices``; each edge line is
    yielded as (lineno, name, ends, options).
    """
    for lineno, line in _lines(text):
        if ":" not in line:
            _fail(lineno, "expected 'vertex NAME: …' or 'edge NAME: …'")
        head, body = line.split(":", 1)
        head = head.split()
        if len(head) != 2 or head[0] not in ("vertex", "edge"):
            _fail(lineno, f"unrecognized directive {head[0] if head else ''!r}")
        kind, name = head
        if kind == "vertex":
            vertices.append(tuple(body.split()))
            continue
        positional, options = _split_fields(body)
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
    """The x=/y= options of the weights that differ from the default x_label, y_label."""
    out = ""
    if x != poly.var(f"x_{label}"):
        out += f" x={x.canonical().replace(' ', '')}"
    if y != poly.var(f"y_{label}"):
        out += f" y={y.canonical().replace(' ', '')}"
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
    M = _build(PlaneMap, vertices, edges)
    M.require_plane()
    return RelPlaneGraph(M, zero, weights, signs)


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
    gauss = None
    crossings = []           # (name, kind, local end names, over pair or None)
    arcs = []                # (name, (cname, end), (cname, end))
    orients = []             # (arc name, "+" | "-")
    for lineno, line in _lines(text):
        if line.startswith("gauss"):
            gauss = line[len("gauss"):].strip()
            continue
        if ":" not in line:
            _fail(lineno, "expected 'crossing/arc/orient NAME: …'")
        head, body = line.split(":", 1)
        head = head.split()
        if len(head) != 2:
            _fail(lineno, "expected 'crossing/arc/orient NAME: …'")
        kind, name = head
        if kind == "crossing":
            # ends= takes four space-separated names, so collect tokens by hand
            ckind = None
            ends = None
            over = None
            tokens = body.split()
            pos = 0
            while pos < len(tokens):
                tok = tokens[pos]
                if tok.startswith("kind="):
                    ckind = tok[len("kind="):]
                    pos += 1
                elif tok.startswith("over="):
                    over = tuple(tok[len("over="):].split(","))
                    pos += 1
                elif tok.startswith("ends="):
                    ends = [tok[len("ends="):]]
                    pos += 1
                    while pos < len(tokens) and "=" not in tokens[pos]:
                        ends.append(tokens[pos])
                        pos += 1
                else:
                    _fail(lineno, f"unexpected token {tok!r}")
            if ckind not in ("classical", "virtual"):
                _fail(lineno, f"bad crossing kind {ckind!r}")
            if ends is None or len(ends) != 4:
                _fail(lineno, "crossing needs ends=<h1> <h2> <h3> <h4>")
            if over is not None and len(over) != 2:
                _fail(lineno, "over needs two comma-separated ends")
            crossings.append((name, ckind, ends, over))
        elif kind == "arc":
            refs = body.split()
            if len(refs) != 2 or any("." not in r for r in refs):
                _fail(lineno, "arc needs two <crossing>.<end> references")
            a, b = (tuple(r.split(".", 1)) for r in refs)
            arcs.append((name, a, b))
        elif kind == "orient":
            flag = body.strip()
            if flag not in ("+", "-"):
                _fail(lineno, f"bad orientation {flag!r}")
            orients.append((name, flag))
        else:
            _fail(lineno, f"unrecognized directive {kind!r}")
    if gauss is not None:
        if crossings or arcs or orients:
            raise ParseError("a gauss line excludes crossing/arc/orient lines")
        try:
            return realize_gauss_code(gauss)
        except MalformedCode as exc:
            raise ParseError(str(exc)) from exc

    vertices = []
    kinds = {}
    over = {}
    index = {}
    for ci, (name, ckind, ends, over_pair) in enumerate(crossings):
        index[name] = ci
        darts = tuple(f"{name}.{h}" for h in ends)
        vertices.append(darts)
        kinds[ci] = ckind
        if over_pair is not None:
            over[ci] = frozenset(f"{name}.{h}" for h in over_pair)
    edges = []
    for name, (ca, ha), (cb, hb) in arcs:
        for c in (ca, cb):
            if c not in index:
                raise ParseError(f"arc {name!r} references unknown crossing {c!r}")
        edges.append(MapEdge((f"{ca}.{ha}", f"{cb}.{hb}"), name))
    M = _build(PlaneMap, vertices, edges)
    L = VirtualLinkDiagram(M, kinds, over, None, 0)
    if orients:
        by_label = {e.label: e for e in edges}
        flags = {}
        for name, flag in orients:
            if name not in by_label:
                raise ParseError(f"orient references unknown arc {name!r}")
            flags[by_label[name].ends[0]] = flag
        orientations = {}
        for comp in L.strand_components():
            # "+" means the named arc is traversed first-end to second-end;
            # align the canonical traversal of the component with that
            forward = None
            for i, dart in enumerate(comp):
                if dart in flags:
                    forward = (i % 2 == 0) == (flags[dart] == "+")
            if forward is None:
                continue
            for i, dart in enumerate(comp):
                orientations[dart] = (i % 2 == 0) == forward
        L = VirtualLinkDiagram(M, kinds, over, orientations, 0)
    return L


def serialize_vld(L: VirtualLinkDiagram) -> str:
    if L.free_loops:
        raise MalformedDiagram("free loops cannot be serialized; use a gauss line")
    out = []
    names = {}
    for ci, cycle in enumerate(L.map.vertices):
        names.update({h: (f"c{ci}", h) for h in cycle})
        line = (f"crossing c{ci}: kind={L.kinds[ci]} "
                f"ends={' '.join(str(h) for h in cycle)}")
        if ci in L.over:
            o = [h for h in cycle if h in L.over[ci]]
            line += f" over={o[0]},{o[1]}"
        out.append(line)
    for e in L.map.edges:
        (c1, h1), (c2, h2) = names[e.ends[0]], names[e.ends[1]]
        out.append(f"arc {e.label}: {c1}.{h1} {c2}.{h2}")
    if L.orientations is not None:
        by_dart = {h: e for e in L.map.edges for h in e.ends}
        for comp in L.strand_components():
            rep = comp[0]
            arc = by_dart[rep]
            rep_out = L.orientations.get(rep)
            if rep_out is None:
                continue
            # "+" = the arc is traversed from its first to its second end
            flag = "+" if rep_out == (rep == arc.ends[0]) else "-"
            out.append(f"orient {arc.label}: {flag}")
    return "\n".join(out) + "\n"
