"""Genus-0 combinatorial maps and the relative Tutte polynomial.

A plane map is the untwisted, unweighted case of the rotation-system core
in ``ribbon``: a ``RibbonGraph`` whose edges are ``MapEdge`` records and
whose face count satisfies the Euler relation v - e + f = 2k.  Its medial
circles are the side cycles of ``ribbon.side_kernel`` with every ribbon
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
onto the 4m slots of the m regular edges.  ``convert.plane_to_ribbon``
reads its ribbon graph off the same kernel.

The states come from ``util.tally`` on that kernel and on two partitions
of F's ends, the vertices and the components of H, whose joins give k(F)
and k(F union H) (``relative_joins``); it picks the frontier census or
the depth-first sweep, as for the bracket.  One affine form of a record's
values gives every state's exponents to ``poly.class_sum``.  ``RelPlaneGraph`` admits genus-0 maps
only, so the genus is not checked per state; the reference path
``psi(contract_all(G, F))`` builds H_F.

``dart_walks`` is the one face walker; only ``faces`` adds the marker
walks ("iso", i) of isolated vertices, last.

``contract_where`` is the one splice of rotations that builds a map, behind
``contract``, ``contract_all`` and ``convert.ribbon_to_plane``; it builds
one map per call.  ``remainders`` splices in place instead: one
depth-first walk contracts and deletes the regular edges on a mutable arc
matching, undoing each step on the way back, and reads k, v and delta of
every H_F off it without building a map.  It is kept apart from
``contract_where``, which would cost a map per subset, and from the
kernels, because ``verify.check_subset_identities`` checks the kernels
against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterable, Iterator, Mapping

from .errors import GenusError, SizeLimit
from .poly import Affine, Polynomial, class_sum, monomial, var
from .ribbon import (CROSSWISE, DEFAULT_EDGE_CAP, SAME_SIDE, RibbonGraph, side_arcs,
                     side_cycles, side_kernel)
from .util import CycleKernel, count_cycles, tally


@dataclass(frozen=True)
class MapEdge:
    ends: tuple
    label: str


class PlaneMap(RibbonGraph):
    """Rotation system with untwisted, unweighted edges (``MapEdge``)."""

    def euler_deficit(self) -> int:
        """v - e + f - 2k; zero exactly for genus-0 maps.  The faces f are
        the cycles of the next-dart map, popped dart by dart without listing
        their walks, and one per vertex without a dart, as in ``faces``."""
        after = _next_darts(self)
        f = sum(not cycle for cycle in self.vertices)
        while after:
            start, h = after.popitem()
            f += 1
            while h != start:
                h = after.pop(h)
        return self.num_vertices - self.num_edges + f - 2 * self.components()

    def require_plane(self):
        deficit = self.euler_deficit()
        if deficit:
            raise GenusError(
                f"rotation system is not genus 0: Euler deficit {deficit}")


def _next_darts(M: PlaneMap) -> dict:
    """Every dart d -> the rotation successor of partner(d), filled in one
    pass over the rotations: h follows g, so h is next after partner(g)."""
    partner = M.partner
    after = {}
    for cycle in M.vertices:
        if cycle:
            g = cycle[-1]
            for h in cycle:
                after[partner[g]] = h
                g = h
    return after


def dart_walks(M: PlaneMap) -> list[list]:
    """The face walks that hold darts, in rotation order: cycles of the
    next-dart map d -> rotation-next of partner(d), each from its first
    dart.  The faces of isolated vertices come after them, in vertex order,
    and are left to the callers; only ``faces`` writes a marker for them."""
    after = _next_darts(M)
    walks = []
    for cycle in M.vertices:
        for start in cycle:
            if start in after:
                walk = [start]
                h = after.pop(start)
                while h != start:
                    walk.append(h)
                    h = after.pop(h)
                walks.append(walk)
    return walks


def faces(M: PlaneMap) -> list[list]:
    """Every face walk: the ``dart_walks`` in rotation order, then the
    isolated vertices last, each as the singleton walk ("iso", index).
    Only this function writes that marker; no other package code reads it."""
    return dart_walks(M) + [[("iso", i)] for i, cycle in enumerate(M.vertices) if not cycle]


def delete(M: PlaneMap, ei: int) -> PlaneMap:
    """Remove edge ``ei`` from the map, keeping all vertices."""
    return submap(M, (i for i in range(M.num_edges) if i != ei))


def contract(M: PlaneMap, ei: int) -> PlaneMap:
    """Contract a non-loop edge by splicing the end rotations; a loop is deleted."""
    return contract_where(M, (ei,))[0]


def contract_where(m: PlaneMap, contract: Container[int],
                   keep: Container[int] | None = None) -> tuple[PlaneMap, int]:
    """Contract the edges with indices in ``contract``, in edge order, and
    return the map, built once at the end, and the number of them that were
    loops when reached, and so were deleted.  Edges are identified by index,
    never by label; the other kept edges stay in order.

    Edge indices outside ``keep`` (default: every edge) are deleted first.
    Edge (h1, h2) from u to v puts u's rotation after h1, then v's after h2,
    in u's place and drops v.
    """
    kept = [i for i in range(m.num_edges) if keep is None or i in keep]
    live = {h for i in kept for h in m.edges[i].ends}
    rotations = [[h for h in c if h in live] for c in m.vertices]
    home = {h: i for i, c in enumerate(rotations) for h in c}
    edges = []
    loops = 0
    for i in kept:
        if i not in contract:
            edges.append(m.edges[i])
            continue
        h1, h2 = m.edges[i].ends
        u, v = home[h1], home[h2]
        cu, cv = rotations[u], rotations[v]
        if u == v:
            loops += 1
            cu.remove(h1)
            cu.remove(h2)
            continue
        iu, iv = cu.index(h1), cv.index(h2)
        rotations[u] = cu[iu + 1:] + cu[:iu] + cv[iv + 1:] + cv[:iv]
        rotations[v] = None
        for h in cv:
            home[h] = u
    return PlaneMap([c for c in rotations if c is not None], edges), loops


def remainders(G: RelPlaneGraph) -> Iterator[tuple[int, int, int]]:
    """(k, v, delta) of H_F, F contracted inside F union H, for every
    subset F of G's regular edges in ascending mask order (bit i for the
    i-th regular edge): what ``contract_all`` and ``medial_circles`` give,
    read off one mutable map instead of one map per subset.

    The rotations are the arc matching of the side slots, laid out by
    ``side_arcs`` with H's edges first: arc joins side (h, 1) to side
    (g, 0) of the next half-edge g.  Regular edge j is one level of a
    depth-first walk from the last edge to the first, bit clear before bit
    set, the order of ``util.sweep``: from mask - 1 to mask, the levels up
    to mask's lowest set bit t are undone, t is set and the levels below
    it are cleared again.  A clear bit unlinks both half-edges of its edge
    from their rotations.  A set bit splices the rotations of a non-loop
    edge (h1, h2) into one, prev(h1) to next(h2) and prev(h2) to next(h1),
    or unlinks the other end when one end is alone at its vertex; a loop,
    found by a union-find over G's vertices, is unlinked, as
    ``contract_where`` deletes it.  A step changes at most four arcs, and
    an unlinked half-edge keeps its own arcs, so it is undone by relinking
    its half-edges in reverse order (Knuth's "dancing links").  A second
    union-find, seeded with H's edges, counts k.  Both are by size without
    path compression, and a level takes back the root it hung.

    At a leaf every regular half-edge is unlinked, so H's slots carry the
    rotations of H_F: delta is the cycles of their arcs and the twisted
    links s ^ 2, plus the vertices left without a half-edge.  A leaf costs
    O(|H|) and a step O(log v); the walk holds O(|G| + m).
    """
    M = G.map
    regular = G.regular_indices()
    zero = sorted(G.zero)
    m, nv = len(regular), M.num_vertices
    arc, empty = side_arcs(M, zero + regular)
    live = 4 * len(zero)
    twisted = [s ^ 2 for s in range(live)]
    unseen = bytearray(live) + b"\1" * (4 * m)
    ends = M.vertex_pairs(regular)
    # union-finds with undo: merged vertices by F, and components by F u H
    byF, byFH = (list(range(nv)), [1] * nv), (list(range(nv)), [1] * nv)

    def union(forest, u, v):
        """Join the classes of u and v; the root hung under the other, or -1."""
        up, size = forest
        while up[u] != u:
            u = up[u]
        while up[v] != v:
            v = up[v]
        if u == v:
            return -1
        if size[u] > size[v]:
            u, v = v, u
        up[u] = v
        size[v] += size[u]
        return u

    def split(forest, u):
        up, size = forest
        size[up[u]] -= size[u]
        up[u] = u

    def unlink(s):
        """Take half-edge s out of its rotation; 1 if it was alone there."""
        p, n = arc[s], arc[s + 1]
        arc[p], arc[n] = n, p
        return p == s + 1

    k = nv - sum(union(byFH, u, v) >= 0 for u, v in M.vertex_pairs(zero))
    merged = 0
    undo: list = [None] * m

    def step(j, bit):
        nonlocal empty, merged, k
        s1 = live + 4 * j
        s2 = s1 + 2
        hF = hFH = -1
        if bit:
            u, v = ends[j]
            hF = union(byF, u, v)
            if hF >= 0:
                hFH = union(byFH, u, v)
        undo[j] = empty, merged, k, hF, hFH
        if hF < 0:
            empty += unlink(s1)
            empty += unlink(s2)
            return
        merged += 1
        k -= hFH >= 0
        if arc[s1] == s1 + 1:
            empty += unlink(s2)
        elif arc[s2] == s2 + 1:
            unlink(s1)
        else:
            p1, n1, p2, n2 = arc[s1], arc[s1 + 1], arc[s2], arc[s2 + 1]
            arc[p1], arc[n2] = n2, p1
            arc[p2], arc[n1] = n1, p2

    def back(j):
        nonlocal empty, merged, k
        for s in (live + 4 * j + 2, live + 4 * j):
            arc[arc[s]] = s
            arc[arc[s + 1]] = s + 1
        empty, merged, k, hF, hFH = undo[j]
        if hF >= 0:
            split(byF, hF)
        if hFH >= 0:
            split(byFH, hFH)

    for j in reversed(range(m)):
        step(j, 0)
    yield k, nv - merged, empty + count_cycles(arc, twisted, bytearray(unseen))
    for mask in range(1, 1 << m):
        # the bits below the lowest set bit t were set and are now clear
        t = (mask & -mask).bit_length() - 1
        for j in range(t + 1):
            back(j)
        step(t, 1)
        for j in reversed(range(t)):
            step(j, 0)
        yield k, nv - merged, empty + count_cycles(arc, twisted, bytearray(unseen))


def medial_circles(M: PlaneMap) -> int:
    """Circles of the straight-ahead ("crossed lines") tracing of the map.

    The tracing follows boundary sides along vertex rotations and keeps the
    same side when traversing an edge, so the two strands cross over each
    edge midpoint: the side cycles with every ribbon twisted.  An isolated
    vertex contributes one circle.
    """
    return side_cycles(M, range(M.num_edges))


class RelPlaneGraph:
    """A plane map with 0-edges H, weights on regular edges, optional signs.

    The map must be genus 0, as the relative Tutte polynomial is defined
    only there: any other raises GenusError with its Euler deficit.
    """

    def __init__(self, map: PlaneMap, zero: Iterable[int] = (),
                 weights: Mapping[int, tuple] | None = None,
                 signs: Mapping[int, int] | None = None):
        map.require_plane()
        self.map = map
        self.zero = frozenset(zero)
        if not self.zero <= set(range(map.num_edges)):
            raise ValueError("0-edge indices out of range")
        self._regular = tuple(i for i in range(map.num_edges) if i not in self.zero)
        regular = self._regular
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
        """The indices of the edges outside H, ascending, listed once per
        graph (its map and H never change)."""
        return list(self._regular)

    def __repr__(self):
        return (f"RelPlaneGraph(v={self.map.num_vertices}, "
                f"e={self.map.num_edges}, zero={sorted(self.zero)})")


@dataclass
class ContractionResult:
    map: PlaneMap
    deleted_loops: int


def submap(M: PlaneMap, subset: Iterable[int]) -> PlaneMap:
    """Spanning submap on the given edges."""
    return contract_where(M, (), set(subset))[0]


def contract_all(G: RelPlaneGraph, F: Iterable[int]) -> ContractionResult:
    """Contract the F-edges inside the spanning submap on F united with H.

    F holds edge indices of G; edges are identified by index, so labels
    need not be unique.  Loops encountered during contraction are deleted;
    the count of such deletions equals the nullity of F.
    """
    F = set(F)
    if F & G.zero:
        raise ValueError("F must consist of regular edges")
    m, deleted = contract_where(G.map, F, F | G.zero)
    return ContractionResult(m, deleted)


def psi(H_F: ContractionResult | PlaneMap) -> Polynomial:
    """The block-invariant weight d^(delta-k) * w^(v-k) of a contracted remainder."""
    m = H_F.map if isinstance(H_F, ContractionResult) else H_F
    delta = medial_circles(m)
    k = m.components()
    v = m.num_vertices
    return monomial(1, {"d": delta - k, "w": v - k})


_TOO_MANY_REGULAR = "{n} regular edges exceeds the enumeration cap {cap}"


def relative_tutte(G: RelPlaneGraph, cap: int = DEFAULT_EDGE_CAP,
                   subs: Mapping | None = None) -> Polynomial:
    """The doubly weighted relative Tutte polynomial in X, Y, d, w.

    Sums over all subsets F of regular edges the term
    (prod_{e in F} x_e)(prod_{e in E minus (F union H)} y_e)
    X^(k(F union H) - k(G)) Y^(n(F)) psi(H_F), without building H_F:
    k(H_F) = k(F union H), v(H_F) = k(F), and n(F) + delta(H_F) is the
    side-cycle count of F union H with F untwisted.  The reference path
    ``psi(contract_all(G, F))`` builds H_F.

    The side cycles come from ``relative_kernel`` and k(F), k(F union H)
    from the joins of ``relative_joins``, both read off the records of
    ``util.tally``.  The four exponents are affine in a record's (f,
    cycles, j, jh), and ``poly.class_sum`` takes them as that form
    (``poly.Affine``): a sweep's blocks of 64 subsets as packed columns
    where every weight is a monomial with coefficient 1, and census
    records and every other state one by one.  ``cap`` bounds m and is
    checked before anything is compiled.

    With ``subs``, a map from variable names to images, the result is
    ``relative_tutte(G, cap).subs(subs)``, the same text or the same error,
    substituted while the terms are summed (see ``poly.class_sum``).
    """
    return _relative_sum(G, cap, subs, None)


def _relative_sum(G: RelPlaneGraph, cap: int, subs: Mapping | None,
                  factor: Polynomial | None) -> Polynomial:
    """``relative_tutte(G, cap, subs)`` times ``factor``, a monomial in the
    variables of the result, multiplied in while the terms are summed."""
    regular = G.regular_indices()
    m = len(regular)
    if m > cap:
        raise SizeLimit(_TOO_MANY_REGULAR.format(n=m, cap=cap))
    M = G.map
    nv, kG = M.num_vertices, M.components()
    kernel = relative_kernel(G)
    ends, kH = relative_joins(G)
    classes, records = tally(kernel, [G.weights[ei] for ei in regular], ends)
    # per name (constant, f, cycles, j, jh): with k(F) = nv - j, k(F u H) =
    # kH - jh and n(F) = f - j, X^(k(F u H) - kG), Y^n(F),
    # d^(cycles - n(F) - k(F u H)) and w^(k(F) - k(F u H))
    rows = ((kH - kG, 0, 0, 0, -1), (0, 1, 0, -1, 0), (-kH, -1, 1, 1, 1),
            (nv - kH, 0, 0, -1, 1))
    # 0 <= k(F), k(F u H), k(G) <= nv, 0 <= n(F) <= m, and the side
    # cycles n(F) + delta lie in [0, closed + 2m]
    bound = nv + m + kernel.closed + 2 * m
    return class_sum(classes, ("X", "Y", "d", "w"), bound,
                     Affine(records, rows, factor=factor), subs)


def relative_kernel(G: RelPlaneGraph) -> CycleKernel:
    """The side cycles of F union H with H twisted and fixed, F untwisted,
    on the 4 * |regular| slots of the regular edges: the compiled state of
    ``relative_tutte``, built once per graph."""
    regular = G.regular_indices()
    present = dict.fromkeys(G.zero, SAME_SIDE)
    present.update(dict.fromkeys(regular, CROSSWISE))
    return side_kernel(G.map, present, regular)


def relative_joins(G: RelPlaneGraph) -> tuple[list, int]:
    """The ends of the regular edges for ``util.tally``, and k(H).  The ends
    come in two partitions: each edge's pair of vertices, and their roots
    in H.  With a state's joins j and jh in them, k(F) = v - j and
    k(F u H) = k(H) - jh."""
    M = G.map
    root = M.roots(G.zero)
    vertices = M.vertex_pairs(G.regular_indices())
    return [vertices, [(root[u], root[v]) for u, v in vertices]], len(set(root))


def dual(G: RelPlaneGraph) -> RelPlaneGraph:
    """The planar dual: faces become vertices, in the order of ``faces``,
    each edge is crossed once.

    The dual edge of a 0-edge is a 0-edge; the weight pair of a regular
    edge is swapped.
    """
    M = G.map
    vertices = [tuple(walk) for walk in dart_walks(M)]
    vertices += [() for cycle in M.vertices if not cycle]
    dm = PlaneMap(vertices, list(M.edges))
    weights = {i: (y, x) for i, (x, y) in G.weights.items()}
    return RelPlaneGraph(dm, G.zero, weights)
