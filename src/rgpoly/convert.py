"""Conversions between ribbon graphs, relative plane graphs and diagrams.

``ribbon_to_plane`` draws the ribbon graph combinatorially with the layered
router, replaces every crossing, twist mark and regular mark by its gadget
(checkerboard 4-cycle of 0-edges / one 0-edge / one weighted regular edge)
and contracts the remaining skeleton with ``planemap.contract_where``.
``plane_to_ribbon`` runs the inverse construction through the medial
circles of the 0-edge subgraph, walking the int side slots of
``ribbon.side_slots``.
``link_to_tait`` shades a virtual link diagram and extracts its relative
plane Tait graph with signed regular edges.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedDiagram
from .planemap import MapEdge, PlaneMap, RelPlaneGraph, contract_where, faces
from .poly import ONE, var
from .ribbon import SAME_SIDE, Edge, RibbonGraph, side_slots
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
    terminals = [list(v) for v in R.vertices]
    connections = [tuple(e.ends) for e in R.edges]
    marks = [["reg"] + (["twist"] if e.sign < 0 else []) for e in R.edges]
    rd = route(terminals, connections, marks)

    vertices = [list(rd.map.vertices[ti]) for ti in rd.terminal_vertices]
    edges = list(rd.map.edges)          # skeleton segments
    skeleton = set(edges)
    zero_edges = []
    reg_of = {}                         # regular MapEdge -> ribbon edge index
    serial = 0

    for rotation in rd.crossing_rotations:
        # four strand-ends in counterclockwise order become four vertices
        # joined by a quadrilateral of 0-edges
        base = len(vertices)
        cycle_halves = [(f"q{serial}_{i}a", f"q{serial}_{i}b") for i in range(4)]
        for i, arm in enumerate(rotation):
            za = cycle_halves[i][0]
            zb_prev = cycle_halves[(i - 1) % 4][1]
            vertices.append([arm, za, zb_prev])
        for i, (za, zb) in enumerate(cycle_halves):
            e = MapEdge((za, zb), f"q{serial}_{i}")
            edges.append(e)
            zero_edges.append(e)
        serial += 1

    for (ci, mi), vi in rd.mark_vertices.items():
        earlier, later = rd.map.vertices[vi]
        ga, gb = f"m{serial}a", f"m{serial}b"
        vertices.append([earlier, ga])
        vertices.append([later, gb])
        if marks[ci][mi] == "reg":
            e = MapEdge((ga, gb), R.edges[ci].label)
            reg_of[e] = ci
        else:
            e = MapEdge((ga, gb), f"t{serial}")
            zero_edges.append(e)
        edges.append(e)
        serial += 1

    # contract every skeleton segment; the skeleton is a forest after gadget
    # substitution, so no loop can appear
    m, loops = contract_where(PlaneMap(vertices, edges), skeleton.__contains__)
    assert loops == 0

    zero = {i for i, e in enumerate(m.edges) if e in set(zero_edges)}
    weights = {}
    g_to_r = {}
    for i, e in enumerate(m.edges):
        if e in reg_of:
            ri = reg_of[e]
            g_to_r[i] = ri
            weights[i] = (R.edges[ri].x, R.edges[ri].y)
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

    circles = []
    seen = bytearray(len(sl.arc))
    starts = sorted((s for s in range(len(sl.arc)) if sl.darts[s >> 1] in zero_darts),
                    key=lambda s: (str(sl.darts[s >> 1]), s & 1))
    for start in starts:
        if seen[start]:
            continue
        circle = []
        s = start
        while True:
            seen[s] = 1
            t = sl.arc[s]
            # a regular end is passed through its closed link; reaching its
            # side 0 means the arc runs counterclockwise
            while sl.darts[t >> 1] not in zero_darts:
                circle.append((sl.darts[t >> 1], not t & 1))
                t = sl.arc[t ^ 1]
            seen[t] = 1
            s = sl.link[t]
            if s == start:
                break
        circles.append(circle)
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

    Faces are checkerboard colored per component with the face holding the
    smallest dart white; black faces become vertices, classical crossings
    signed regular edges, virtual crossings 0-edges.  Crossing-free
    components contribute isolated vertices.
    """
    M = L.map
    for cycle in M.vertices:
        if len(cycle) != 4:
            raise MalformedDiagram(
                f"crossing of degree {len(cycle)}, expected 4")
    walks = faces(M)
    face_of = {}
    for fi, walk in enumerate(walks):
        for d in walk:
            face_of[d] = fi

    # face adjacency through edges, per diagram component
    adj = {fi: set() for fi in range(len(walks))}
    for e in M.edges:
        h1, h2 = e.ends
        f1, f2 = face_of[h1], face_of[h2]
        adj[f1].add(f2)
        adj[f2].add(f1)
    color = {}
    for fi in sorted(range(len(walks)),
                     key=lambda i: min(str(d) for d in walks[i]) if walks[i] else ""):
        if fi in color:
            continue
        color[fi] = 0   # the minimal-dart face of each component is white
        queue = [fi]
        while queue:
            cur = queue.pop()
            for nb in adj[cur]:
                if nb in color:
                    assert color[nb] != color[cur], "faces are not 2-colorable"
                else:
                    color[nb] = 1 - color[cur]
                    queue.append(nb)

    black = sorted(fi for fi in range(len(walks)) if color[fi] == 1)
    vertex_of_face = {fi: i for i, fi in enumerate(black)}
    # the corner between darts d and sigma(d) carries id d and lies in the
    # face traced through alpha(d)
    partner = M.partner
    rotations = [tuple(partner[x] for x in walks[fi]) for fi in black]

    edges = []
    zero = set()
    weights = {}
    signs = {}
    for ci, cycle in enumerate(M.vertices):
        corners = [d for d in cycle if face_of[partner[d]] in vertex_of_face]
        assert len(corners) == 2, "crossing corners are not properly shaded"
        e = MapEdge(tuple(corners), f"c{ci}")
        idx = len(edges)
        edges.append(e)
        if L.kinds[ci] == "virtual":
            zero.add(idx)
        else:
            sign = 1 if set(corners) == set(L.over[ci]) else -1
            signs[idx] = sign
            weights[idx] = (ONE, ONE) if sign > 0 else (var("x_minus"),
                                                        var("y_minus"))
    used = {h for e in edges for h in e.ends}
    vertices = [tuple(h for h in rot if h in used) for rot in rotations]
    vertices.extend(() for _ in range(L.free_loops))
    G = RelPlaneGraph(PlaneMap(vertices, edges), zero, weights, signs)
    G.map.require_plane()
    return G
