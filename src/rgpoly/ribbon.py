"""Ribbon graphs as signed rotation systems, and the rotation-system core.

A ribbon graph is a surface built from vertex-discs and edge-ribbons; here
it is stored combinatorially as a cyclic order of half-edges around every
vertex plus a sign per edge (-1 for a half-twisted ribbon).

``RibbonGraph`` is the one map class of the package.  Its constructor
validates the rotation system once and indexes every half-edge by its
vertex; it also provides the lazily built partner map and the component
count of spanning subgraphs.  A plane map (``planemap.PlaneMap``) is the
untwisted, unweighted case.

``side_links`` is the one side-cycle tracer and ``side_cycles`` counts its
cycles.  Every half-edge carries two side slots, disc arcs join the slots
of consecutive half-edges in a restricted rotation, and each ribbon links
the slots of its two ends, crosswise when untwisted and side to same side
when twisted.  The cycles are the boundary components of a ribbon
subgraph, the medial circles of a plane map (every ribbon twisted) and the
vertex circles that ``plane_to_ribbon`` rebuilds.

On top of the core the module computes nullity and boundary components of
spanning subgraphs, the doubly weighted Bollobas-Riordan polynomial, and
converts to and from arrow presentations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Container, Iterable, Sequence

from .errors import MalformedPresentation
from .poly import Polynomial, monomial, state_sum, var
from .util import UnionFind, count_cycles

DEFAULT_EDGE_CAP = 24


@dataclass(frozen=True)
class Edge:
    """An edge-ribbon: an unordered pair of half-edges plus sign and weights."""

    ends: tuple
    sign: int
    x: Polynomial
    y: Polynomial
    label: str


def make_edge(h1, h2, sign=1, label=None, x=None, y=None) -> Edge:
    if label is None:
        label = f"{h1}{h2}"
    if sign not in (1, -1):
        raise ValueError(f"edge sign must be +1 or -1, got {sign}")
    if x is None:
        x = var(f"x_{label}")
    if y is None:
        y = var(f"y_{label}")
    return Edge((h1, h2), sign, x, y, label)


class RibbonGraph:
    """Rotation system: vertices are cyclic half-edge sequences.

    The core reads only the ``ends`` of each edge: ``Edge`` records make a
    signed, weighted ribbon graph, ``planemap.MapEdge`` records a plane map.
    """

    def __init__(self, vertices: Sequence[Sequence], edges: Sequence):
        self.vertices = [tuple(v) for v in vertices]
        self.edges = list(edges)
        self._home = {h: i for i, v in enumerate(self.vertices) for h in v}
        self._validate()

    def _validate(self):
        if sum(map(len, self.vertices)) != len(self._home):
            raise ValueError("a half-edge occurs more than once in the rotation system")
        matched = [h for e in self.edges for h in e.ends]
        if len(matched) != len(self._home) or set(matched) != self._home.keys():
            raise ValueError("edge ends are not a perfect matching on the half-edges")

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def vertex_of(self, h) -> int:
        return self._home[h]

    @cached_property
    def partner(self) -> dict:
        """The other end of every half-edge's edge."""
        out = {}
        for e in self.edges:
            h1, h2 = e.ends
            out[h1] = h2
            out[h2] = h1
        return out

    def all_edges(self) -> frozenset:
        return frozenset(range(len(self.edges)))

    def union_find(self, subset: Iterable[int] | None = None) -> UnionFind:
        """Vertices joined along the edges in ``subset`` (default: all edges)."""
        uf = UnionFind(range(len(self.vertices)))
        home = self._home
        for ei in range(len(self.edges)) if subset is None else subset:
            h1, h2 = self.edges[ei].ends
            uf.union(home[h1], home[h2])
        return uf

    def components(self, subset: Iterable[int] | None = None) -> int:
        """Connected components of the spanning subgraph on ``subset``."""
        return self.union_find(subset).count

    def __repr__(self):
        return f"{type(self).__name__}(v={self.num_vertices}, e={self.num_edges})"


def components(R: RibbonGraph, subset: Iterable[int]) -> int:
    """Number of connected components of the spanning subgraph on ``subset``."""
    return R.components(subset)


def nullity(R: RibbonGraph, subset: Iterable[int]) -> int:
    """|F| - v + k(F) for the spanning subgraph on ``subset``."""
    subset = list(subset)
    return len(subset) - R.num_vertices + components(R, subset)


def side_links(R: RibbonGraph, edges: Iterable[int],
               untwisted: Container[int] = ()) -> tuple[dict, dict, int]:
    """The two slot matchings whose cycles are traced side by side.

    Only the half-edges of ``edges`` take part, each with side slots
    (h, 0) and (h, 1).  ``arc`` joins (h, 1) to (g, 0) for g the successor
    of h in the rotation restricted to those half-edges.  ``link`` joins
    the slots of each edge's ends crosswise, (h1, 0)-(h2, 1) and
    (h1, 1)-(h2, 0), for an edge in ``untwisted``, and side to same side
    otherwise.  Returns (arc, link, bare), where ``bare`` counts the
    vertices left without a half-edge; each is a cycle by itself.
    """
    link = {}
    for ei in edges:
        h1, h2 = R.edges[ei].ends
        t = 1 if ei in untwisted else 0
        link[(h1, 0)] = (h2, t)
        link[(h2, t)] = (h1, 0)
        link[(h1, 1)] = (h2, 1 - t)
        link[(h2, 1 - t)] = (h1, 1)
    arc = {}
    bare = 0
    for cycle in R.vertices:
        rot = [h for h in cycle if (h, 0) in link]
        if not rot:
            bare += 1
            continue
        prev = rot[-1]
        for h in rot:
            arc[(prev, 1)] = (h, 0)
            arc[(h, 0)] = (prev, 1)
            prev = h
    return arc, link, bare


def side_cycles(R: RibbonGraph, edges: Iterable[int],
                untwisted: Container[int] = ()) -> int:
    """Number of side cycles of ``side_links``, bare vertices included."""
    arc, link, bare = side_links(R, edges, untwisted)
    return bare + count_cycles(arc, link)


def boundary_components(R: RibbonGraph, subset: Iterable[int]) -> int:
    """Boundary walks of the surface with all vertex-discs and only F's ribbons."""
    subset = set(subset)
    return side_cycles(R, subset, {ei for ei in subset if R.edges[ei].sign == 1})


def bollobas_riordan(R: RibbonGraph, cap: int = DEFAULT_EDGE_CAP) -> Polynomial:
    """The doubly weighted Bollobas-Riordan polynomial in X, Y, Z.

    Sums over all 2^|E| spanning subgraphs F the term
    (prod_{e in F} x_e)(prod_{e not in F} y_e)
    X^(k(F)-k(R)) Y^(n(F)) Z^(k(F)-bc(F)+n(F)).
    """
    m = R.num_edges
    kR = R.components()

    def term(mask):
        subset = [i for i in range(m) if mask >> i & 1]
        k = R.components(subset)
        n = len(subset) - R.num_vertices + k
        bc = boundary_components(R, subset)
        return monomial(1, {"X": k - kR, "Y": n, "Z": k - bc + n})

    return state_sum([(e.x, e.y) for e in R.edges], cap,
                     "{n} edges exceeds the enumeration cap {cap}", term)


# -- arrow presentations ---------------------------------------------


@dataclass
class ArrowPresentation:
    """Circles carrying directed arrow occurrences, two per edge label.

    ``circles`` is a list of cyclic sequences of (label, direction) pairs;
    the direction flag records whether the arrow points along the circle's
    traversal.  ``weights`` travel alongside so a ribbon graph can be
    rebuilt with the same edge data.
    """

    circles: list
    weights: dict = field(default_factory=dict)

    def labels(self):
        out = {}
        for ci, circle in enumerate(self.circles):
            for pos, (label, direction) in enumerate(circle):
                out.setdefault(label, []).append((ci, pos, direction))
        return out


def arrow_presentation(R: RibbonGraph) -> ArrowPresentation:
    """One circle per vertex-disc, arrows at the attachment arcs.

    The two arrows of an untwisted edge point the same way along their
    circles; a twisted edge reverses one of them.
    """
    flag = {}
    weights = {}
    for e in R.edges:
        h1, h2 = e.ends
        flag[h1] = True
        flag[h2] = e.sign == 1
        weights[e.label] = (e.x, e.y)
    circles = []
    label_of = {h: e.label for e in R.edges for h in e.ends}
    for cycle in R.vertices:
        circles.append([(label_of[h], flag[h]) for h in cycle])
    return ArrowPresentation(circles, weights)


def from_arrow_presentation(a: ArrowPresentation) -> RibbonGraph:
    """Rebuild the ribbon graph: circles become vertex-discs, arrow pairs edges."""
    occurrences = a.labels()
    vertices = []
    for ci, circle in enumerate(a.circles):
        vertices.append(tuple((ci, pos) for pos in range(len(circle))))
    edges = []
    for label in sorted(occurrences, key=repr):
        occ = occurrences[label]
        if len(occ) != 2:
            raise MalformedPresentation(
                f"label {label!r} occurs {len(occ)} times, expected 2")
        (c1, p1, d1), (c2, p2, d2) = occ
        sign = 1 if d1 == d2 else -1
        x, y = a.weights.get(label, (None, None))
        edges.append(make_edge((c1, p1), (c2, p2), sign=sign, label=str(label),
                               x=x, y=y))
    return RibbonGraph(vertices, edges)
