"""Virtual link diagrams, Kauffman bracket state sum, writhe, Jones.

A diagram is a 4-valent plane map whose vertices are crossings, classical
(with a designated over strand) or virtual.  Crossing-free unknot
components are carried as a counter since they have no vertices to sit on.
The bracket runs on ``poly.state_sum`` with the weight pair (A, B) at every
classical crossing.  ``bracket_kernel`` compiles the diagram once: the arcs
are the fixed matching, and since a virtual crossing only joins opposite
darts (Kauffman 1999, "Virtual knot theory"), the virtual crossings
collapse into a matching on the 4n darts of the n classical crossings.
Each state then picks the A or B splitting at every classical crossing and
counts its circles with ``util.count_cycles`` in O(n).
"""

from __future__ import annotations

import re

from .errors import MalformedCode, MalformedDiagram, MissingOrientation
from .planemap import PlaneMap
from .poly import Polynomial, monomial, state_sum, var
from .router import route
from .util import CycleKernel

DEFAULT_CROSSING_CAP = 20


class VirtualLinkDiagram:
    """4-valent plane map with over-strand data at classical crossings."""

    def __init__(self, map: PlaneMap, kinds, over, orientations=None,
                 free_loops: int = 0):
        self.map = map
        self.kinds = dict(kinds)
        self.over = {ci: frozenset(pair) for ci, pair in over.items()}
        self.orientations = dict(orientations) if orientations is not None else None
        self.free_loops = free_loops
        self._validate()

    def _validate(self):
        M = self.map
        for ci, cycle in enumerate(M.vertices):
            if len(cycle) != 4:
                raise MalformedDiagram(
                    f"vertex {ci} has degree {len(cycle)}, expected 4")
            kind = self.kinds.get(ci)
            if kind not in ("classical", "virtual"):
                raise MalformedDiagram(f"vertex {ci} has no crossing kind")
            if kind == "classical":
                pair = self.over.get(ci)
                if pair != frozenset((cycle[0], cycle[2])) and \
                        pair != frozenset((cycle[1], cycle[3])):
                    raise MalformedDiagram(
                        f"over pair of crossing {ci} is not an opposite pair")
            elif ci in self.over:
                raise MalformedDiagram(f"virtual crossing {ci} has over data")
        M.require_plane()

    @property
    def classical(self) -> list:
        return [ci for ci in range(self.map.num_vertices)
                if self.kinds[ci] == "classical"]

    def rotation_next(self, ci: int, dart):
        cycle = self.map.vertices[ci]
        return cycle[(cycle.index(dart) + 1) % 4]

    def mirror(self) -> "VirtualLinkDiagram":
        """Swap the over strand at every classical crossing."""
        over = {}
        for ci in self.classical:
            cycle = self.map.vertices[ci]
            other = set(cycle) - self.over[ci]
            over[ci] = frozenset(other)
        return VirtualLinkDiagram(self.map, self.kinds, over,
                                  self.orientations, self.free_loops)

    def strand_components(self) -> list:
        """Dart cycles of the strands, each starting at its minimal out-dart."""
        partner = self.map.partner
        comps = []
        seen = set()
        for start in sorted(partner, key=str):
            if start in seen:
                continue
            cycle = []
            out = start
            while True:
                cycle.append(out)
                seen.add(out)
                incoming = partner[out]
                cycle.append(incoming)
                seen.add(incoming)
                ci = self.map.vertex_of(incoming)
                out = self.rotation_next(ci, self.rotation_next(ci, incoming))
                if out == start:
                    break
            comps.append(cycle)
        return comps

    def __repr__(self):
        n = len(self.classical)
        return (f"VirtualLinkDiagram(classical={n}, "
                f"virtual={self.map.num_vertices - n}, "
                f"free_loops={self.free_loops})")


def bracket_kernel(L: VirtualLinkDiagram) -> CycleKernel:
    """The bracket's state circles, compiled once per diagram.

    The nodes are the darts, the arcs ``partner``.  Classical crossing j
    owns nodes 4j..4j+3 in rotation order; a state's mask bit j set picks
    its A-splitting, which joins each over dart to its rotation predecessor
    (the arcs bounding the two corners swept counterclockwise by the over
    strand), and a clear bit the B-splitting, to its successor.  A virtual
    crossing only joins opposite darts, so the arcs and the virtual
    crossings collapse once into a matching on the 4n classical darts;
    strands that meet no classical crossing and the free loops are counted
    once.
    """
    M = L.map
    classical = L.classical
    order = classical + [ci for ci in range(M.num_vertices)
                         if L.kinds[ci] == "virtual"]
    node = {h: 4 * b + i for b, ci in enumerate(order)
            for i, h in enumerate(M.vertices[ci])}
    arc = [0] * len(node)
    for h, g in M.partner.items():
        arc[node[h]] = node[g]
    opposite = [s ^ 2 for s in range(len(arc))]
    choices = []
    for ci in classical:
        over_even = L.over[ci] == frozenset(M.vertices[ci][0::2])
        choices.append((1, 3) if over_even else (3, 1))    # (B, A) xors
    return CycleKernel(arc, opposite, choices, L.free_loops)


def split(L: VirtualLinkDiagram, state) -> int:
    """Number of closed curves after splitting every classical crossing
    ``ci`` by ``state[ci]``, "A" or "B"; see ``bracket_kernel``."""
    mask = sum(1 << j for j, ci in enumerate(L.classical) if state[ci] == "A")
    return bracket_kernel(L).cycles(mask)


def kauffman_bracket(L: VirtualLinkDiagram,
                     cap: int = DEFAULT_CROSSING_CAP) -> Polynomial:
    """Sum of A^alpha B^beta d^(delta-1) over all 2^n states."""
    kernel = bracket_kernel(L)

    def term(mask):
        return monomial(1, {"d": kernel.cycles(mask) - 1})

    return state_sum([(var("A"), var("B"))] * len(L.classical), cap,
                     "{n} classical crossings exceeds the cap {cap}", term)


def writhe(L: VirtualLinkDiagram) -> int:
    """Sum of crossing signs; positive when (over, under) is a ccw frame."""
    if L.orientations is None:
        raise MissingOrientation("diagram carries no orientations")
    total = 0
    for ci in L.classical:
        cycle = L.map.vertices[ci]
        over = sorted(L.over[ci], key=str)
        under = [d for d in cycle if d not in L.over[ci]]
        outs = []
        for pair in (over, under):
            flags = [L.orientations.get(d) for d in pair]
            if None in flags or flags[0] == flags[1]:
                raise MissingOrientation(
                    f"crossing {ci} lacks a consistent strand orientation")
            outs.append(pair[0] if flags[0] else pair[1])
        over_out, under_out = outs
        total += 1 if under_out == L.rotation_next(ci, over_out) else -1
    return total


def jones(L: VirtualLinkDiagram, cap: int = DEFAULT_CROSSING_CAP) -> Polynomial:
    """(-1)^w t^(3w/4) times the bracket at A=t^(-1/4), B=t^(1/4)."""
    from fractions import Fraction
    w = writhe(L)
    bracket = kauffman_bracket(L, cap).subs({
        "A": monomial(1, {"t": Fraction(-1, 4)}),
        "B": monomial(1, {"t": Fraction(1, 4)}),
        "d": -monomial(1, {"t": Fraction(1, 2)}) - monomial(1, {"t": Fraction(-1, 2)}),
    })
    return monomial((-1) ** (w % 2), {"t": Fraction(3 * w, 4)}) * bracket


_TOKEN = re.compile(r"\s*([OU])(\d+)([+-])\s*")


def realize_gauss_code(code: str) -> VirtualLinkDiagram:
    """Deterministic planar realization of a signed Gauss code.

    Classical crossings sit on a baseline in label order with rotation
    (W, S, E, N); the over strand runs W to E, the under strand S to N for
    a positive crossing and N to S for a negative one.  Arcs are routed in
    layers and every routing intersection becomes a virtual crossing.
    """
    words = []
    for chunk in code.split("|"):
        word = []
        pos = 0
        chunk = chunk.strip()
        while pos < len(chunk):
            m = _TOKEN.match(chunk, pos)
            if m is None:
                raise MalformedCode(f"bad token at {chunk[pos:]!r}")
            try:
                label = int(m.group(2))
            except ValueError:      # past the interpreter's integer-string limit
                raise MalformedCode(f"crossing label of {len(m.group(2))} digits "
                                    f"is too long") from None
            word.append((m.group(1), label, m.group(3)))
            pos = m.end()
        words.append(word)
    free_loops = sum(1 for w in words if not w)
    words = [w for w in words if w]

    passes = {}
    for word in words:
        for ou, label, sign in word:
            passes.setdefault(label, []).append((ou, sign))
    for label, ps in passes.items():
        if sorted(ou for ou, _ in ps) != ["O", "U"]:
            raise MalformedCode(
                f"crossing {label} must occur exactly once as O and once as U")
        if ps[0][1] != ps[1][1]:
            raise MalformedCode(f"crossing {label} has inconsistent signs")

    labels = sorted(passes)
    sign_of = {lb: passes[lb][0][1] for lb in labels}
    terminals = [[(lb, "W"), (lb, "S"), (lb, "E"), (lb, "N")] for lb in labels]

    def ends(ou, label):
        if ou == "O":
            return (label, "W"), (label, "E")
        if sign_of[label] == "+":
            return (label, "S"), (label, "N")
        return (label, "N"), (label, "S")

    connections = []
    for word in words:
        for j, (ou, label, _) in enumerate(word):
            nou, nlabel, _ = word[(j + 1) % len(word)]
            connections.append((ends(ou, label)[1], ends(nou, nlabel)[0]))

    rd = route(terminals, connections)
    kinds = {}
    over = {}
    for ti in rd.terminal_vertices:
        kinds[ti] = "classical"
        rot = rd.map.vertices[ti]
        over[ti] = frozenset((rot[0], rot[2]))    # the W and E darts
    for xi in rd.crossing_vertices:
        kinds[xi] = "virtual"
    orientations = {}
    for segs in rd.path_segments:
        for da, db in segs:
            orientations[da] = True
            orientations[db] = False
    return VirtualLinkDiagram(rd.map, kinds, over, orientations, free_loops)
