"""Genus-0 combinatorial maps and the relative Tutte polynomial.

A plane map is the untwisted, unweighted case of the rotation-system core
in ``ribbon``: a ``RibbonGraph`` whose edges are ``MapEdge`` records and
whose face count satisfies the Euler relation v - e + f = 2k.  Its medial
circles are the side cycles of ``ribbon.side_slots`` with every ribbon
twisted.  On top of it sit relative plane graphs: a marked subset H of
0-edges, weights on the remaining (regular) edges, and the all-subset
relative Tutte polynomial.  It weights the remainder H_F of contracting F in
F union H by psi = d^(delta-k) * w^(v-k), delta counting its medial circles,
and reads all three off G: k(H_F) = k(F union H), v(H_F) = k(F), and
n(F) + delta(H_F) = side cycles of F union H with F untwisted.

``relative_kernel`` compiles this once per graph.  The side slots take
their arcs over the full rotation; a regular edge outside F self-links the
two sides of each end, which drops it, so the arcs serve every F.  The
0-edges are always present and twisted, so the side cycles collapse once
onto the 4m slots of the m regular edges, and k(F), k(F union H) come from
a union-find over F's ends alone, on vertex ids and on the components of H.  A state costs
O(m), not O(size of G).  The reference path ``psi(contract_all(G, F))``
builds H_F.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .errors import GenusError
from .poly import Polynomial, monomial, state_sum, var
from .ribbon import (CROSSWISE, DEFAULT_EDGE_CAP, SAME_SIDE, RibbonGraph,
                     side_cycles, side_kernel)
from .util import CycleKernel, Merges


@dataclass(frozen=True)
class MapEdge:
    ends: tuple
    label: str


class PlaneMap(RibbonGraph):
    """Rotation system with untwisted, unweighted edges (``MapEdge``)."""

    def euler_deficit(self) -> int:
        """v - e + f - 2k; zero exactly for genus-0 maps."""
        f = len(faces(self))
        return self.num_vertices - self.num_edges + f - 2 * self.components()

    def require_plane(self):
        deficit = self.euler_deficit()
        if deficit:
            raise GenusError(
                f"rotation system is not genus 0: Euler deficit {deficit}")


def faces(M: PlaneMap) -> list[list]:
    """Face walks: cycles of the next-dart map d -> rotation-next of partner(d).

    Isolated vertices contribute singleton walks ("iso", vertex index).
    """
    partner = M.partner
    succ = {}
    for cycle in M.vertices:
        m = len(cycle)
        for i, h in enumerate(cycle):
            succ[h] = cycle[(i + 1) % m]
    walks = []
    seen = set()
    for cycle in M.vertices:
        for start in cycle:
            if start in seen:
                continue
            walk = []
            h = start
            while True:
                walk.append(h)
                seen.add(h)
                h = succ[partner[h]]
                if h == start:
                    break
            walks.append(walk)
    for i, cycle in enumerate(M.vertices):
        if not cycle:
            walks.append([("iso", i)])
    return walks


def delete(M: PlaneMap, ei: int) -> PlaneMap:
    """Remove edge ``ei`` from the map, keeping all vertices."""
    dropped = set(M.edges[ei].ends)
    vertices = [tuple(h for h in v if h not in dropped) for v in M.vertices]
    edges = [e for i, e in enumerate(M.edges) if i != ei]
    return PlaneMap(vertices, edges)


def contract(M: PlaneMap, ei: int) -> PlaneMap:
    """Contract a non-loop edge by splicing the end rotations; a loop is deleted."""
    h1, h2 = M.edges[ei].ends
    u, v = M.vertex_of(h1), M.vertex_of(h2)
    if u == v:
        return delete(M, ei)
    cu, cv = list(M.vertices[u]), list(M.vertices[v])
    iu, iv = cu.index(h1), cv.index(h2)
    merged = tuple(cu[iu + 1:] + cu[:iu] + cv[iv + 1:] + cv[:iv])
    vertices = [merged if i == u else tuple(c)
                for i, c in enumerate(M.vertices) if i != v]
    edges = [e for i, e in enumerate(M.edges) if i != ei]
    return PlaneMap(vertices, edges)


def contract_where(m: PlaneMap, match: Callable) -> tuple[PlaneMap, int]:
    """Contract edges ``e`` with ``match(e)``, first match first, until none is left.

    Returns the contracted map and the number of matching edges that were
    loops by the time they were reached, and so were deleted.
    """
    loops = 0
    i = 0
    while i < len(m.edges):
        if not match(m.edges[i]):
            i += 1
            continue
        h1, h2 = m.edges[i].ends
        if m.vertex_of(h1) == m.vertex_of(h2):
            loops += 1
        # contracting keeps the order of the other edges, and those before
        # i do not match, so the scan resumes at i
        m = contract(m, i)
    return m, loops


def medial_circles(M: PlaneMap) -> int:
    """Circles of the straight-ahead ("crossed lines") tracing of the map.

    The tracing follows boundary sides along vertex rotations and keeps the
    same side when traversing an edge, so the two strands cross over each
    edge midpoint: the side cycles with every ribbon twisted.  An isolated
    vertex contributes one circle.
    """
    return side_cycles(M, range(M.num_edges))


class RelPlaneGraph:
    """A plane map with 0-edges H, weights on regular edges, optional signs."""

    def __init__(self, map: PlaneMap, zero: Iterable[int] = (),
                 weights: Mapping[int, tuple] | None = None,
                 signs: Mapping[int, int] | None = None):
        self.map = map
        self.zero = frozenset(zero)
        if not self.zero <= set(range(map.num_edges)):
            raise ValueError("0-edge indices out of range")
        regular = self.regular_indices()
        if weights is None:
            weights = {i: (var(f"x_{map.edges[i].label}"),
                           var(f"y_{map.edges[i].label}")) for i in regular}
        if set(weights) != set(regular):
            raise ValueError("weights must be given exactly on regular edges")
        self.weights = dict(weights)
        self.signs = dict(signs) if signs is not None else {}
        if not set(self.signs) <= set(regular):
            raise ValueError("signs may only be given on regular edges")

    def regular_indices(self) -> list[int]:
        return [i for i in range(self.map.num_edges) if i not in self.zero]

    def __repr__(self):
        return (f"RelPlaneGraph(v={self.map.num_vertices}, "
                f"e={self.map.num_edges}, zero={sorted(self.zero)})")


@dataclass
class ContractionResult:
    map: PlaneMap
    deleted_loops: int


def submap(M: PlaneMap, subset: Iterable[int]) -> PlaneMap:
    """Spanning submap on the given edges."""
    edges = [M.edges[ei] for ei in sorted(set(subset))]
    keep = {h for e in edges for h in e.ends}
    vertices = [tuple(h for h in v if h in keep) for v in M.vertices]
    return PlaneMap(vertices, edges)


def contract_all(G: RelPlaneGraph, F: Iterable[int]) -> ContractionResult:
    """Contract the F-edges inside the spanning submap on F united with H.

    Loops encountered during contraction are deleted; the count of such
    deletions equals the nullity of F.
    """
    F = sorted(set(F))
    if set(F) & G.zero:
        raise ValueError("F must consist of regular edges")
    M = G.map
    f_labels = {M.edges[ei].label for ei in F}
    m, deleted = contract_where(submap(M, F + sorted(G.zero)),
                                lambda e: e.label in f_labels)
    return ContractionResult(m, deleted)


def psi(H_F: ContractionResult | PlaneMap) -> Polynomial:
    """The block-invariant weight d^(delta-k) * w^(v-k) of a contracted remainder."""
    m = H_F.map if isinstance(H_F, ContractionResult) else H_F
    delta = medial_circles(m)
    k = m.components()
    v = m.num_vertices
    return monomial(1, {"d": delta - k, "w": v - k})


def relative_tutte(G: RelPlaneGraph, cap: int = DEFAULT_EDGE_CAP) -> Polynomial:
    """The doubly weighted relative Tutte polynomial in X, Y, d, w.

    Sums over all subsets F of regular edges the term
    (prod_{e in F} x_e)(prod_{e in E minus (F union H)} y_e)
    X^(k(F union H) - k(G)) Y^(n(F)) psi(H_F), without building H_F:
    k(H_F) = k(F union H), v(H_F) = k(F), and n(F) + delta(H_F) is the
    side-cycle count of F union H with F untwisted.  The reference path
    ``psi(contract_all(G, F))`` builds H_F.
    """
    regular = G.regular_indices()
    M = G.map
    nv = M.num_vertices
    kG = M.components()
    kernel, joins, joins_h, kH = relative_kernel(G)

    def term(mask):
        kF = nv - joins.count(mask)
        kFH = kH - joins_h.count(mask)
        nF = mask.bit_count() - nv + kF
        delta = kernel.cycles(mask) - nF
        return monomial(1, {"X": kFH - kG, "Y": nF, "d": delta - kFH,
                            "w": kF - kFH})

    return state_sum([G.weights[ei] for ei in regular], cap,
                     "{n} regular edges exceeds the enumeration cap {cap}", term)


def relative_kernel(G: RelPlaneGraph) -> tuple[CycleKernel, Merges, Merges, int]:
    """The compiled state of ``relative_tutte``, built once per graph.

    Returns the side-cycle kernel of F union H with H twisted and fixed, on
    the 4 * |regular| slots of the regular edges, then the joins of F on the
    vertices and on the components of H, and k(H).
    """
    M = G.map
    regular = G.regular_indices()
    present = dict.fromkeys(G.zero, SAME_SIDE)
    present.update(dict.fromkeys(regular, CROSSWISE))
    kernel = side_kernel(M, present, regular)
    uf = M.union_find(G.zero)
    ends = [tuple(M.vertex_of(h) for h in M.edges[ei].ends) for ei in regular]
    joins_h = Merges([(uf.find(u), uf.find(v)) for u, v in ends])
    return kernel, Merges(ends), joins_h, uf.count


def dual(G: RelPlaneGraph) -> RelPlaneGraph:
    """The planar dual: faces become vertices, each edge is crossed once.

    The dual edge of a 0-edge is a 0-edge; the weight pair of a regular
    edge is swapped.
    """
    M = G.map
    walks = faces(M)
    vertices = []
    for walk in walks:
        if len(walk) == 1 and isinstance(walk[0], tuple) and walk[0][0] == "iso":
            vertices.append(())
        else:
            vertices.append(tuple(walk))
    dm = PlaneMap(vertices, list(M.edges))
    weights = {i: (y, x) for i, (x, y) in G.weights.items()}
    return RelPlaneGraph(dm, G.zero, weights)
