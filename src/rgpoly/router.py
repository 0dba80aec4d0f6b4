"""Coordinate-free layered routing of strands in the plane.

Terminals sit on a baseline with their stubs fanning upward in rotation
order; every connection runs up from its first stub to a private height,
across, and back down.  Heights go by span length on the baseline, the
shortest lowest and ties to input order, so two nested spans never cross
and two interleaved ones cross once: the fewest crossings that any order
of heights gives for that baseline.  Strand intersections are computed
exactly from the layer/abscissa structure and materialize as explicit
4-valent transversal vertices, so the output is a genuine plane map:
rotation systems at terminals are preserved.

The vertices come in a fixed order that consumers rely on: the terminals
in input order; then the crossings sorted by (abscissa, height), each with
rotation (E, N, W, S); then the marks by (connection, position).

Consumers decorate the result differently: the ribbon-to-plane conversion
replaces crossings and marks by gadgets, the Gauss-code realizer treats
the inserted crossings as virtual ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from .planemap import MapEdge, PlaneMap


@dataclass
class RoutedDiagram:
    """The routed plane map.  Its vertices are the terminals in input order,
    the crossings by (abscissa, height), each with rotation (E, N, W, S),
    then the marks by (connection, position)."""

    map: PlaneMap
    crossing_vertices: range       # vertex indices of inserted crossings
    mark_vertices: dict            # (connection index, mark position) -> vertex index
    path_segments: list            # per connection: [(dart_from, dart_to), ...]


def route(terminals, connections, marks=None) -> RoutedDiagram:
    """Route ``connections`` (a perfect matching on the terminal stubs).

    ``marks`` optionally lists, per connection, labels of degree-2 vertices
    to insert on the crossing-free stretch next to the connection's first
    stub, in order outward from the terminal.
    """
    if marks is None:
        marks = [[] for _ in connections]
    E, N, W, S = range(4)               # a compass role is a rotation position
    xs = {}
    slot = {}                           # stub -> (terminal, rotation position)
    for ti, rot in enumerate(terminals):
        for pos, s in reversed(list(enumerate(rot))):
            if s in xs:
                raise ValueError(f"stub {s!r} appears twice")
            xs[s] = len(xs)
            slot[s] = (ti, pos)
    spans = [sorted((xs[p], xs[q])) for p, q in connections]

    # a connection's height is its rank by span length; a stub's vertical
    # meets every lower horizontal that spans its abscissa
    order = sorted(range(len(spans)), key=lambda ci: spans[ci][1] - spans[ci][0])
    height = {ci: y for y, ci in enumerate(order, 1)}
    lower = []                          # height - 1 -> span
    rise = {}                           # stub -> heights crossed, bottom up
    across = [[] for _ in connections]  # height - 1 -> abscissas crossed
    for ci in order:
        for s in connections[ci]:
            x = xs[s]
            rise[s] = [y for y, (lo, hi) in enumerate(lower, 1) if lo < x < hi]
            for y in rise[s]:
                across[y - 1].append(x)
        lower.append(spans[ci])
    base = len(terminals)
    crossing = {xy: base + i for i, xy in enumerate(
        sorted((x, y) for y, row in enumerate(across, 1) for x in row))}
    rotations = [[None] * len(rot) for rot in terminals] + [[None] * 4 for _ in crossing]
    mark_vertices = {}
    segments = []
    path_segments = []
    for ci, (p, q) in enumerate(connections):
        # the stops of the path: (vertex, entering role, leaving role)
        xp, xq = xs[p], xs[q]
        stops = [(slot[p][0], None, slot[p][1])]
        for mi in range(len(marks[ci])):
            mark_vertices[ci, mi] = len(rotations)
            stops.append((len(rotations), 0, 1))
            rotations.append([None, None])
        stops += [(crossing[xp, y], S, N) for y in rise[p]]
        top = height[ci]
        stops += [(crossing[x, top], *((W, E) if xq > xp else (E, W)))
                  for x in sorted(across[top - 1], reverse=xq < xp)]
        stops += [(crossing[xq, y], N, S) for y in reversed(rise[q])]
        stops.append((slot[q][0], slot[q][1], None))
        segs = []
        for j, ((u, _, out), (v, into, _)) in enumerate(zip(stops, stops[1:])):
            da, db = f"c{ci}s{j}a", f"c{ci}s{j}b"
            rotations[u][out] = da
            rotations[v][into] = db
            segments.append(MapEdge((da, db), f"seg_{ci}_{j}"))
            segs.append((da, db))
        path_segments.append(segs)

    return RoutedDiagram(PlaneMap(rotations, segments), range(base, base + len(crossing)),
                         mark_vertices, path_segments)
