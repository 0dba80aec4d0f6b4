"""Ribbon graphs as signed rotation systems, and the rotation-system core.

A ribbon graph is a surface built from vertex-discs and edge-ribbons; here
it is stored combinatorially as a cyclic order of half-edges around every
vertex plus a sign per edge (-1 for a half-twisted ribbon).

``RibbonGraph`` is the one map class of the package.  Its constructor
validates the rotation system once and indexes every half-edge by its
vertex; it also provides the lazily built partner map and the vertex
classes (``roots``) and component count of spanning subgraphs, the count
over all edges cached once per map.  A plane map (``planemap.PlaneMap``)
is the untwisted, unweighted case.

The compile step of the state sums lives here.  ``side_kernel`` gives
every half-edge two int side slots, four per edge.  Disc arcs join the
slots of consecutive half-edges in the full rotation, the same for every
state.  Each ribbon links the slots of its two ends, crosswise when
untwisted and side to same side when twisted; an absent edge links the two
sides of each end to each other, which is the same as dropping its
half-edges from the rotation.  The cycles are the boundary components of a
ribbon subgraph, the medial circles of a plane map (every ribbon twisted)
and the vertex circles that ``plane_to_ribbon`` rebuilds.  The slots
compile into a ``util.CycleKernel``: the edges outside the enumerated set
have fixed links and collapse once, so a state of a sum over m edges costs
O(m) at most, however many fixed edges the map has.  ``from_slots`` reads
a ribbon graph back off such slots (the gem encoding).

On top of the core the module computes nullity and boundary components of
spanning subgraphs, the doubly weighted Bollobas-Riordan polynomial (all
edges live, nothing to collapse, every subgraph visited by one depth-first
``util.sweep`` that also counts its vertex joins), and converts to and
from arrow presentations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Container, Iterable, Mapping, Sequence

from .errors import MalformedPresentation, SizeLimit
from .poly import Affine, Polynomial, class_sum, var
from .util import CycleKernel, cycles, roots, sweep

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

    def vertex_pairs(self, subset: Iterable[int] | None = None) -> list[tuple[int, int]]:
        """The two end vertices of each edge in ``subset`` (default: all edges)."""
        home = self._home
        edges = self.edges if subset is None else map(self.edges.__getitem__, subset)
        return [(home[a], home[b]) for a, b in (e.ends for e in edges)]

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

    def roots(self, subset: Iterable[int] | None = None) -> list[int]:
        """``util.roots`` of the vertices joined along ``subset`` (default: all edges)."""
        return roots(len(self.vertices), self.vertex_pairs(subset))

    def components(self, subset: Iterable[int] | None = None) -> int:
        """Connected components of the spanning subgraph on ``subset``
        (default: all edges, k of the map, counted once per map: nothing
        changes a map's rotations or edges after construction)."""
        if subset is None:
            return self._components
        return len(set(self.roots(subset)))

    @cached_property
    def _components(self) -> int:
        return len(set(self.roots()))

    def __repr__(self):
        return f"{type(self).__name__}(v={self.num_vertices}, e={self.num_edges})"


def components(R: RibbonGraph, subset: Iterable[int]) -> int:
    """Number of connected components of the spanning subgraph on ``subset``."""
    return R.components(subset)


def nullity(R: RibbonGraph, subset: Iterable[int]) -> int:
    """|F| - v + k(F) for the spanning subgraph on ``subset``."""
    subset = list(subset)
    return len(subset) - R.num_vertices + components(R, subset)


# How an edge links the slots (h1, 0), (h1, 1), (h2, 0), (h2, 1) of its
# block 4b..4b+3: slot s goes to s ^ CLOSED when the edge is absent, to
# s ^ SAME_SIDE for a twisted ribbon and to s ^ CROSSWISE for an untwisted one.
CLOSED, SAME_SIDE, CROSSWISE = 1, 2, 3


def side_kernel(R: RibbonGraph, present: Mapping[int, int],
                state: Sequence[int] = ()) -> CycleKernel:
    """The side cycles of R's ribbons, compiled over the states of ``state``.

    Edge ``state[j]`` owns the block of slots 4j..4j+3, (h1, 0), (h1, 1),
    (h2, 0), (h2, 1), and the other edges follow in index order.  Arcs join
    (h, 1) to (g, 0) for g the successor of h in the full rotation.  Links
    join the slots of edge e by ``present[e]`` (SAME_SIDE or CROSSWISE), and
    an edge missing from ``present`` by CLOSED, which is the same as
    dropping its half-edges from the rotation; a vertex without a half-edge
    is a cycle by itself.  Bit j of a state's mask puts edge ``state[j]`` in
    with ``present``'s link; a clear bit leaves it out.  Every other edge is
    fixed and collapses once, so the kernel has 4 * len(state) live slots.
    """
    live = set(state)
    order = list(state) + [e for e in range(len(R.edges)) if e not in live]
    arc, bare = side_arcs(R, order)
    links = [present.get(e, CLOSED) for e in order]
    link = [s ^ links[s >> 2] for s in range(len(arc))]
    return CycleKernel(arc, link, [(CLOSED, present[e]) for e in state], bare)


def side_arcs(R: RibbonGraph, order: Sequence[int]) -> tuple[list, int]:
    """The arc matching of R's side slots and the number of vertices
    without a half-edge.  Edge ``order[b]`` owns the slots 4b..4b+3, (h1,
    0), (h1, 1), (h2, 0), (h2, 1), and ``order`` lists every edge once;
    arcs join (h, 1) to (g, 0) for g the successor of h in the rotation."""
    slot = {}
    for b, e in enumerate(order):
        h1, h2 = R.edges[e].ends
        slot[h1], slot[h2] = 4 * b, 4 * b + 2
    arc = [0] * (2 * len(slot))
    bare = 0
    for cycle in R.vertices:
        if not cycle:
            bare += 1
            continue
        prev = slot[cycle[-1]] + 1
        for h in cycle:
            s = slot[h]
            arc[prev], arc[s] = s, prev
            prev = s + 1
    return arc, bare


def from_slots(arc: Sequence[int], close: Sequence[int], link: Sequence[int],
               names: Sequence[tuple], edges: Sequence[tuple],
               bare: int) -> RibbonGraph:
    """The ribbon graph of three involutions on the slots 4j..4j+3 of edge j.

    ``close`` pairs the sides of each half-edge, the pair holding 4j being
    end ``names[j][0]``.  The discs are the cycles of (close, arc) from their
    lowest slots, half-edge {s, close[s]} entered at s, then ``bare`` empty
    discs.  Edge j, labelled and weighted by ``edges[j]`` = (label, x, y),
    is untwisted exactly when ``link`` joins the side by which one end is
    entered to the side by which the other end is left.
    """
    into = [0] * (len(arc) >> 1)        # the slot by which each end is entered
    vertices = []
    for cycle in cycles(close, arc, range(len(arc))):
        disc = []
        for s in cycle[::2]:
            j = s >> 2
            end = 4 * j not in (s, close[s])
            into[2 * j + end] = s
            disc.append(names[j][end])
        vertices.append(tuple(disc))
    return RibbonGraph(vertices + [()] * bare, [
        Edge(ends, 1 if link[into[2 * j]] == close[into[2 * j + 1]] else -1,
             x, y, label)
        for j, (ends, (label, x, y)) in enumerate(zip(names, edges))])


def side_cycles(R: RibbonGraph, edges: Iterable[int],
                untwisted: Container[int] = ()) -> int:
    """Side cycles of the ribbons ``edges``, twisted unless in ``untwisted``,
    bare vertices included."""
    present = {ei: CROSSWISE if ei in untwisted else SAME_SIDE for ei in edges}
    return side_kernel(R, present).cycles(0)


def twist_links(R: RibbonGraph) -> dict:
    """Every edge's ribbon links by its sign: CROSSWISE untwisted, SAME_SIDE twisted."""
    return {ei: CROSSWISE if e.sign == 1 else SAME_SIDE
            for ei, e in enumerate(R.edges)}


def boundary_components(R: RibbonGraph, subset: Iterable[int]) -> int:
    """Boundary walks of the surface with all vertex-discs and only F's ribbons."""
    links = twist_links(R)
    return side_kernel(R, {ei: links[ei] for ei in set(subset)}).cycles(0)


def bollobas_riordan(R: RibbonGraph, cap: int = DEFAULT_EDGE_CAP,
                     subs: Mapping | None = None) -> Polynomial:
    """The doubly weighted Bollobas-Riordan polynomial in X, Y, Z.

    Sums over all 2^|E| spanning subgraphs F the term
    (prod_{e in F} x_e)(prod_{e not in F} y_e)
    X^(k(F)-k(R)) Y^(n(F)) Z^(k(F)-bc(F)+n(F)),
    on one kernel whose 4|E| slots are all live.  ``util.sweep`` walks the
    subgraphs depth first and gives each one's boundary components, its
    edge count and the joins of its edges on the vertices, so k(F) = v -
    joins and n(F) = ones - joins: the three exponents are affine in a
    record's (ones, cycles, joins), and ``poly.class_sum`` takes them as
    that form (``poly.Affine``).  Where every weight is a monomial with
    coefficient 1, it counts the sweep's blocks of 64 subgraphs in as
    packed columns; under any other weights each subgraph goes through
    its one per-state loop.  Every edge is a weight class of its own,
    so a mask is its own ``class_sum`` index, whatever the weights (no
    workload runs B_R on the census yet).  More than ``cap`` edges raise
    SizeLimit before anything is compiled, and edges whose ends touch more
    than 256 vertices (the sweep's label limit) before any weight is
    tabulated.

    With ``subs``, a map from variable names to images, the result is
    ``bollobas_riordan(R, cap).subs(subs)``, the same text or the same
    error, substituted while the terms are summed (see ``poly.class_sum``).
    """
    m = R.num_edges
    if m > cap:
        raise SizeLimit(f"{m} edges exceeds the enumeration cap {cap}")
    nv = R.num_vertices
    kR = R.components()
    kernel = side_kernel(R, twist_links(R), range(m))
    # called before class_sum builds its tables, so too many labels raise first
    records = sweep(kernel, [R.vertex_pairs()])
    # per name (constant, ones, cycles, joins): X^(k - kR), Y^n, Z^(k - bc + n)
    # with k = nv - joins and n = ones - joins
    rows = ((nv - kR, 0, 0, -1), (0, 1, 0, -1), (nv, 1, -1, -2))
    # 0 <= k, kR <= nv, 0 <= n <= m and 0 <= bc <= closed + 2m
    bound = nv + m + kernel.closed + 2 * m
    return class_sum([(e.x, e.y, 1) for e in R.edges], ("X", "Y", "Z"), bound,
                     Affine(records, rows), subs)


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
