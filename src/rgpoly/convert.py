"""Conversions between ribbon graphs, relative plane graphs and diagrams.

``ribbon_to_plane`` draws the ribbon graph combinatorially with the layered
router, replaces every crossing, twist mark and regular mark by its gadget
(checkerboard 4-cycle of 0-edges / one 0-edge / one weighted regular edge)
and contracts the remaining skeleton with ``planemap.contract_where``.
Crossings, gadget edges and contracted edges are identified by index, so
edge labels need not be unique.
``plane_to_ribbon`` runs the inverse construction through the medial
circles of the 0-edge subgraph: ``ribbon.from_slots`` reads R off the
collapsed slots of ``planemap.relative_kernel``.
``link_to_tait`` shades a virtual link diagram and extracts its relative
plane Tait graph with signed regular edges.
"""

from __future__ import annotations

from dataclasses import dataclass

from .planemap import (MapEdge, PlaneMap, RelPlaneGraph, contract_where, dart_walks,
                       relative_kernel)
from .poly import ONE, var
from .ribbon import RibbonGraph, from_slots
from .router import route


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
    return RelPlaneGraph(m, zero, weights), ConversionCertificate(g_to_r)


def plane_to_ribbon(G: RelPlaneGraph) -> RibbonGraph:
    """Rebuild a ribbon graph from the medial circles of the 0-edge subgraph:
    the cycles of ``relative_kernel(G)`` with no regular edge are R's discs,
    its links with every regular edge in untwisted are R's ribbons."""
    kernel, regular = relative_kernel(G), G.regular_indices()
    edges = [G.map.edges[i] for i in regular]
    return from_slots(kernel.arc, kernel.links(0), kernel.links((1 << len(regular)) - 1),
                      [e.ends for e in edges],
                      [(e.label, *G.weights[i]) for e, i in zip(edges, regular)],
                      kernel.closed)


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
    walks = dart_walks(M)      # every vertex is a crossing, so every face holds a dart
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
    return RelPlaneGraph(PlaneMap(vertices, edges), zero, weights, signs)
