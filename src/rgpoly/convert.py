"""Conversions between ribbon graphs, relative plane graphs and diagrams.

``ribbon_to_plane`` draws the ribbon graph combinatorially with the layered
router, replaces every crossing, twist mark and regular mark by its gadget
(checkerboard 4-cycle of 0-edges / one 0-edge / one weighted regular edge)
and contracts the remaining skeleton with ``planemap.contract_where``.
Crossings, gadget edges and contracted edges are identified by index, so
edge labels need not be unique.
``plane_to_ribbon`` runs the inverse construction through the medial
circles of the 0-edge subgraph, read with ``util.cycles`` off the int side
slots of ``ribbon.side_slots``.
``link_to_tait`` shades a virtual link diagram and extracts its relative
plane Tait graph with signed regular edges.
"""

from __future__ import annotations

from dataclasses import dataclass

from .planemap import MapEdge, PlaneMap, RelPlaneGraph, contract_where, faces
from .poly import ONE, var
from .ribbon import SAME_SIDE, Edge, RibbonGraph, side_slots
from .router import route
from .util import cycles


@dataclass
class ConversionCertificate:
    """Bijection between the regular edges of G and the edges of R."""

    g_to_r: dict   # regular edge index in G -> edge index in R

    def label_pairs(self, G: RelPlaneGraph, R: RibbonGraph) -> list:
        return sorted((G.map.edges[gi].label, R.edges[ri].label)
                      for gi, ri in self.g_to_r.items())


def ribbon_to_plane(R: RibbonGraph):
    """Draw R in the plane and return (RelPlaneGraph, ConversionCertificate)."""
    marks = [["reg"] + (["twist"] if e.sign < 0 else []) for e in R.edges]
    rd = route(R.vertices, [e.ends for e in R.edges], marks)

    base = R.num_vertices               # gadget n replaces router vertex base + n
    vertices = [list(v) for v in rd.map.vertices[:base]]
    edges = list(rd.map.edges)          # skeleton segments
    skeleton = range(len(edges))
    ribbon_edge = []                    # per gadget edge: R's edge, None for a 0-edge

    for xi in rd.crossing_vertices:
        # four strand-ends in counterclockwise order become four vertices
        # joined by a quadrilateral of 0-edges
        n = xi - base
        cycle_halves = [(f"q{n}_{i}a", f"q{n}_{i}b") for i in range(4)]
        for i, arm in enumerate(rd.map.vertices[xi]):
            vertices.append([arm, cycle_halves[i][0], cycle_halves[i - 1][1]])
        for i, ends in enumerate(cycle_halves):
            edges.append(MapEdge(ends, f"q{n}_{i}"))
            ribbon_edge.append(None)

    for (ci, mi), vi in rd.mark_vertices.items():
        n = vi - base
        earlier, later = rd.map.vertices[vi]
        ga, gb = f"m{n}a", f"m{n}b"
        vertices.append([earlier, ga])
        vertices.append([later, gb])
        reg = marks[ci][mi] == "reg"
        edges.append(MapEdge((ga, gb), R.edges[ci].label if reg else f"t{n}"))
        ribbon_edge.append(ci if reg else None)

    # contract every skeleton segment; the skeleton is a forest after gadget
    # substitution, so no loop can appear, and the gadget edges keep their
    # order as the edges of G
    m, loops = contract_where(PlaneMap(vertices, edges), skeleton)
    assert loops == 0

    g_to_r = {i: ri for i, ri in enumerate(ribbon_edge) if ri is not None}
    zero = [i for i, ri in enumerate(ribbon_edge) if ri is None]
    weights = {i: (R.edges[ri].x, R.edges[ri].y) for i, ri in g_to_r.items()}
    G = RelPlaneGraph(m, zero, weights)
    G.map.require_plane()
    return G, ConversionCertificate(g_to_r)


def plane_to_ribbon(G: RelPlaneGraph) -> RibbonGraph:
    """Rebuild a ribbon graph from the medial circles of the 0-edge subgraph.

    Each circle of the straight-ahead tracing of H becomes a vertex disc;
    the ends of the regular edges ride along as arrows whose direction flag
    records whether their vertex arc was traversed counterclockwise.  An
    edge whose two flags agree is untwisted.
    """
    M = G.map
    sl = side_slots(M, dict.fromkeys(G.zero, SAME_SIDE))   # regular edges CLOSED
    zero_darts = {h for i in G.zero for h in M.edges[i].ends}

    starts = sorted((s for s in range(len(sl.arc)) if sl.darts[s >> 1] in zero_darts),
                    key=lambda s: (str(sl.darts[s >> 1]), s & 1))
    # a regular end is passed through its closed link, entered at an arc target
    # (odd position); entering at side 0 means the arc runs counterclockwise
    circles = [[(sl.darts[t >> 1], not t & 1) for t in cycle[1::2]
                if sl.darts[t >> 1] not in zero_darts]
               for cycle in cycles(sl.arc, sl.link, starts)]
    # vertices without any 0-edge end are circles of their own
    circles.extend([(end, True) for end in cycle] for cycle in M.vertices
                   if not zero_darts.intersection(cycle))

    flag = {}
    for circle in circles:
        for end, f in circle:
            flag[end] = f
    vertices = [tuple(end for end, _ in circle) for circle in circles]
    redges = []
    for i in G.regular_indices():
        h1, h2 = M.edges[i].ends
        sign = 1 if flag[h1] == flag[h2] else -1
        x, y = G.weights[i]
        redges.append(Edge((h1, h2), sign, x, y, M.edges[i].label))
    return RibbonGraph(vertices, redges)


def link_to_tait(L) -> RelPlaneGraph:
    """The relative plane Tait graph of a virtual link diagram.

    Faces are shaded per component, the face holding the smallest dart
    white; the face across each dart d of a face, the one traced through
    ``partner[d]``, takes the other shade.  Black faces become vertices,
    classical crossings signed regular edges, virtual crossings 0-edges.
    Crossing-free components contribute isolated vertices.
    """
    M = L.map
    partner = M.partner
    walks = faces(M)
    face_of = {d: fi for fi, walk in enumerate(walks) for d in walk}
    black = {}
    for fi in sorted(range(len(walks)), key=lambda i: min(map(str, walks[i]))):
        if fi in black:
            continue
        black[fi] = False   # the minimal-dart face of each component is white
        queue = [fi]
        while queue:
            cur = queue.pop()
            for d in walks[cur]:
                across = face_of[partner[d]]
                if across in black:
                    assert black[across] != black[cur], "faces are not 2-colorable"
                else:
                    black[across] = not black[cur]
                    queue.append(across)

    # the corner between darts d and sigma(d) carries id d and lies in the
    # face traced through alpha(d), so each corner on a black walk ends a Tait edge
    vertices = [tuple(partner[d] for d in walk)
                for fi, walk in enumerate(walks) if black[fi]]
    vertices.extend(() for _ in range(L.free_loops))
    edges, zero, weights, signs = [], set(), {}, {}
    for ci, cycle in enumerate(M.vertices):
        corners = [d for d in cycle if black[face_of[partner[d]]]]
        assert len(corners) == 2, "crossing corners are not properly shaded"
        idx = len(edges)
        edges.append(MapEdge(tuple(corners), f"c{ci}"))
        if L.kinds[ci] == "virtual":
            zero.add(idx)
        elif set(corners) == L.over[ci]:
            signs[idx], weights[idx] = 1, (ONE, ONE)
        else:
            signs[idx], weights[idx] = -1, (var("x_minus"), var("y_minus"))
    G = RelPlaneGraph(PlaneMap(vertices, edges), zero, weights, signs)
    G.map.require_plane()
    return G
