"""Independent oracles used by the test suite.

These deliberately avoid the library's subset-enumeration code paths: the
Tutte oracle is a plain deletion-contraction recursion on an abstract
multigraph, the bracket oracle is a from-scratch state sum working on
planar diagram combinatorics only, and the relative Tutte oracle builds
every contracted remainder H_F with ``contract_all`` and weights it with
``psi``.

The per-state oracles keep the library's earlier dict-keyed state bodies:
side slots (h, side) traced over the rotation restricted to the present
half-edges, union-finds over all vertices, and the bracket's smoothing
matching over every dart.  The compiled kernel must agree with them.

``Merges`` and ``state_sum`` are the library's earlier per-state join
counter and enumerating accumulator: ``Merges.count`` runs one union-find
over a state's edge ends, ``count_both`` also over coarser classes of the
ends, and ``state_sum`` feeds ``poly.class_sum`` every subset of its
elements, one ``term(mask)`` call each.  The library now reads every
state's cycles and joins off the records of ``util.sweep`` or
``util.census``;
``relative_merges`` keeps the earlier ``planemap.relative_joins`` on
``Merges``.  ``decode_by_fields`` keeps the earlier per-field decode of
``poly._Fields``, which now reads its fields in groups.
``subs_by_products`` keeps the earlier ``Polynomial.subs``, which
multiplies one ``Polynomial`` per substituted factor; ``subs`` now folds
single-term powers into one exponent dict per term.

``kauffman_bracket_by_states`` keeps the earlier bracket, which runs
``state_sum`` over all 2^n states of the compiled kernel; the bracket
now takes them from ``util.tally``.

``relative_tutte_by_states`` keeps the enumerating ``planemap.relative_tutte``
of per-mask ``state_sum`` calls, ``relative_kernel(G).cycles`` and
``relative_merges``; the library now takes the subsets from
``util.tally``, which counts them in one frontier census when few weight
pairs occur and sweeps them otherwise.

``state_sum_by_products`` keeps the earlier accumulator of
``state_sum``: every state multiplies its weight polynomials and a
``monomial`` of its term's exponents.

``parse_by_tokens`` keeps the earlier reader of ``poly.parse``: a token
list and a recursive-descent parser that multiplies one ``Polynomial`` per
factor.

``canonical_by_dense_keys`` keeps the earlier ``Polynomial.canonical``: a
dense exponent tuple per term as the sort key, and every factor of every
term rendered again.

The structural oracles keep the library's earlier step-by-step bodies:
contraction that builds and validates one map per contracted edge, the
strand walk over ``partner`` and the rotations, and a dict-keyed
union-find of its own.  ``route_by_scans`` keeps the earlier router, which
scans every crossing per connection and walks tagged nodes, with the
router's heights (shorter spans lower, ties to input order); it returns
the map, terminal vertices, crossing vertices, crossing rotations, mark
vertices and path segments.

``parse_vld_by_tokens`` keeps the earlier ``.vld`` reader, with a head
parser of its own and an index-walking token loop per crossing line.
``link_to_tait_by_adjacency`` keeps the earlier Tait graph, which shades
faces over face-adjacency sets built from the edges and filters every
black face's rotation down to the corners of its Tait edges.

``plane_to_ribbon_by_medial_walk`` keeps the earlier ``plane_to_ribbon``,
which walks the medial circles of the 0-edges on uncollapsed side slots of
its own (``side_slots_by_blocks``) from the 0-edge darts in name order and
keeps a direction flag per regular end.  ``convert.plane_to_ribbon`` now
lists its discs in another order and may read a disc the other way, so
``flip_equivalent`` compares the two up to vertex order, rotation start and
vertex flips.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import repeat
from typing import Sequence

from rgpoly.formats import _build, _fail, _lines
from rgpoly.links import (DEFAULT_CROSSING_CAP, VirtualLinkDiagram, bracket_kernel,
                          realize_gauss_code)
from rgpoly.planemap import (MapEdge, PlaneMap, RelPlaneGraph, contract_all, faces,
                             psi, relative_kernel, submap)
from rgpoly.errors import MalformedCode, ParseError, SizeLimit
from rgpoly.poly import (
    _NUM_BUILTINS,
    ONE,
    Polynomial,
    _accumulate,
    _coerce,
    _decimal,
    _power_cached,
    class_sum,
    monomial,
    register,
    var,
    var_name,
)
from rgpoly.ribbon import CLOSED, DEFAULT_EDGE_CAP, SAME_SIDE, Edge, RibbonGraph
from rgpoly.util import cycles


class UnionFind:
    """Union-find over arbitrary hashable items, with component count."""

    def __init__(self, items=()):
        self.parent = {}
        self.count = 0
        for item in items:
            self.add(item)

    def add(self, item):
        if item not in self.parent:
            self.parent[item] = item
            self.count += 1

    def find(self, item):
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb
            self.count -= 1
            return True
        return False


def union_find_by_dicts(R: RibbonGraph, subset=None) -> UnionFind:
    """Vertices joined along the edges in ``subset`` (default: all edges)."""
    uf = UnionFind(range(R.num_vertices))
    for ei in range(R.num_edges) if subset is None else subset:
        h1, h2 = R.edges[ei].ends
        uf.union(R.vertex_of(h1), R.vertex_of(h2))
    return uf


class Merges:
    """Joins made by subsets of a few edges, on the edges' ends alone.

    ``count(mask)`` is the number of edges ``ends[j]`` with bit j of
    ``mask`` set that join two different classes, so a spanning subgraph
    on n classes has n - count(mask) components.  Each call costs
    O(len(ends)), not O(n).

    Given ``classes``, a coarser class for every end (the components of a
    fixed subgraph, say), ``count_both(mask)`` also counts the joins the
    same edges make among those classes, in the same pass.
    """

    def __init__(self, ends: Sequence[tuple], classes: Sequence | None = None):
        ids: dict = {}
        self.ends = [(ids.setdefault(u, len(ids)), ids.setdefault(v, len(ids)))
                     for u, v in ends]
        self.size = len(ids)
        # each end's class, numbered after the ends in one parent list
        cid: dict = {}
        self.classes = [self.size + cid.setdefault(classes[u], len(cid))
                        for u in ids] if classes is not None else []
        self.size_both = self.size + len(cid)

    def count(self, mask: int) -> int:
        parent = list(range(self.size))
        joins = 0
        for j, (u, v) in enumerate(self.ends):
            if mask >> j & 1:
                while parent[u] != u:
                    u = parent[u]
                while parent[v] != v:
                    v = parent[v]
                if u != v:
                    parent[u] = v
                    joins += 1
        return joins

    def count_both(self, mask: int) -> tuple[int, int]:
        """``count(mask)`` and the joins among ``classes``.  An edge whose
        ends were already joined joins no two classes either, as the edges
        that joined them join their classes, so only a join looks classes
        up."""
        parent = list(range(self.size_both))
        classes = self.classes
        joins = class_joins = 0
        for j, (a, b) in enumerate(self.ends):
            if mask >> j & 1:
                u, v = a, b
                while parent[u] != u:
                    u = parent[u]
                while parent[v] != v:
                    v = parent[v]
                if u != v:
                    parent[u] = v
                    joins += 1
                    u, v = classes[a], classes[b]
                    while parent[u] != u:
                        u = parent[u]
                    while parent[v] != v:
                        v = parent[v]
                    if u != v:
                        parent[u] = v
                        class_joins += 1
        return joins, class_joins


def state_sum(weights: list, names: tuple, bound: int, term,
              cap: int, too_many: str) -> Polynomial:
    """Sum over all subsets S of range(len(weights)), given as bit masks, of
    prod(x_i for i in S) * prod(y_i for i not in S) * prod(v^e_v), where
    ``term(mask)`` returns the int exponents e_v of the variables ``names``.

    ``weights`` lists one (x, y) pair per element.  Every exponent that
    ``term`` returns lies in [-bound, bound].  More than ``cap`` elements
    raise SizeLimit with ``too_many`` formatted with ``n`` and ``cap``,
    before anything is built.  Each element is a weight class of its own,
    so a mask is its own ``class_sum`` index and every state counts once.
    """
    n = len(weights)
    if n > cap:
        raise SizeLimit(too_many.format(n=n, cap=cap))
    masks = range(1 << n)
    return class_sum([(x, y, 1) for x, y in weights], names, bound,
                     zip(masks, map(term, masks), repeat(1)))


def relative_merges(G: RelPlaneGraph) -> tuple[Merges, int]:
    """The earlier ``planemap.relative_joins``: the joins of F on the
    vertices and on the components of H, F given as a mask over the regular
    edges, and k(H): with ``j, jh = joins.count_both(mask)``, k(F) = v - j
    and k(F u H) = k(H) - jh."""
    M = G.map
    root = M.roots(G.zero)
    ends = [tuple(M.vertex_of(h) for h in M.edges[ei].ends)
            for ei in G.regular_indices()]
    return Merges(ends, root), len(set(root))


def subs_by_products(p: Polynomial, mapping) -> Polynomial:
    """The earlier ``Polynomial.subs``: a ``Polynomial`` per term, times the
    power of every substituted factor."""
    repl = {register(n): _coerce(q) for n, q in mapping.items()}
    out: dict = {}
    cache: dict = {}
    for key, c in p._terms.items():
        kept = tuple(kv for kv in key if kv[0] not in repl)
        term = Polynomial({kept: c})
        for vid, e4 in key:
            if vid in repl:
                term = term * _power_cached(repl[vid], e4, vid, cache)
        _accumulate(out, term._terms.items())
    return Polynomial(out)


def decode_by_fields(fields, key: int) -> tuple:
    """``poly._Fields.decode`` one field at a time, as it was before fields
    were read in groups: every field's exp4 off its own bits."""
    return tuple((vid, e4) for low, _, group in fields.groups
                 for at, mask, vid, bias, _ in group.fields
                 if (e4 := (key >> (low + at) & mask) - bias))


def state_sum_by_products(weights, names, bound, term, cap, too_many) -> Polynomial:
    """``state_sum`` one state at a time: the product of the state's
    weights times the monomial of ``term(mask)``, added up; ``bound`` is
    not used."""
    n = len(weights)
    if n > cap:
        raise SizeLimit(too_many.format(n=n, cap=cap))
    total = Polynomial.const(0)
    for mask in range(1 << n):
        weight = ONE
        for i, (x, y) in enumerate(weights):
            weight = weight * (x if mask >> i & 1 else y)
        total = total + weight * monomial(1, dict(zip(names, term(mask))))
    return total


# -- contraction one map per step ----------------------------------------


def delete_by_steps(M: PlaneMap, ei: int) -> PlaneMap:
    """Remove edge ``ei`` from the map, keeping all vertices."""
    dropped = set(M.edges[ei].ends)
    vertices = [tuple(h for h in v if h not in dropped) for v in M.vertices]
    edges = [e for i, e in enumerate(M.edges) if i != ei]
    return PlaneMap(vertices, edges)


def contract_by_steps(M: PlaneMap, ei: int) -> PlaneMap:
    """Contract a non-loop edge by splicing the end rotations; a loop is deleted."""
    h1, h2 = M.edges[ei].ends
    u, v = M.vertex_of(h1), M.vertex_of(h2)
    if u == v:
        return delete_by_steps(M, ei)
    cu, cv = list(M.vertices[u]), list(M.vertices[v])
    iu, iv = cu.index(h1), cv.index(h2)
    merged = tuple(cu[iu + 1:] + cu[:iu] + cv[iv + 1:] + cv[:iv])
    vertices = [merged if i == u else tuple(c)
                for i, c in enumerate(M.vertices) if i != v]
    edges = [e for i, e in enumerate(M.edges) if i != ei]
    return PlaneMap(vertices, edges)


def contract_where_by_steps(m: PlaneMap, match) -> tuple[PlaneMap, int]:
    """Contract edges ``e`` with ``match(e)``, first match first, building
    and validating a map after every contraction; returns the map and the
    number of matching edges that were loops when reached."""
    loops = 0
    i = 0
    while i < len(m.edges):
        if not match(m.edges[i]):
            i += 1
            continue
        h1, h2 = m.edges[i].ends
        if m.vertex_of(h1) == m.vertex_of(h2):
            loops += 1
        m = contract_by_steps(m, i)
    return m, loops


def contract_all_by_steps(G: RelPlaneGraph, F) -> tuple[PlaneMap, int]:
    """H_F and its deleted loops, contracting F in F u H one map per step."""
    M = G.map
    F = sorted(set(F))
    f_edges = {M.edges[ei] for ei in F}
    return contract_where_by_steps(submap(M, F + sorted(G.zero)),
                                   lambda e: e in f_edges)


def route_by_scans(terminals, connections, marks=None) -> tuple:
    """Route ``connections`` (a perfect matching on the terminal stubs).

    ``marks`` optionally lists, per connection, labels of degree-2 vertices
    to insert on the crossing-free stretch next to the connection's first
    stub, in order outward from the terminal.
    """
    if marks is None:
        marks = [[] for _ in connections]
    xs = {}
    stub_home = {}
    x = 0
    for ti, rot in enumerate(terminals):
        for s in reversed(list(rot)):
            if s in xs:
                raise ValueError(f"stub {s!r} appears twice")
            xs[s] = x
            stub_home[s] = ti
            x += 1
    span = {}
    for ci, (p, q) in enumerate(connections):
        span[ci] = (min(xs[p], xs[q]), max(xs[p], xs[q]))
    # shorter spans run lower, ties to input order
    ranked = sorted(range(len(connections)), key=lambda ci: (span[ci][1] - span[ci][0], ci))
    layer = {ci: rank + 1 for rank, ci in enumerate(ranked)}

    # crossing key (x, y) -> {"v": (ci, "start"|"end"), "h": cj}
    crossings = {}
    for ci, (p, q) in enumerate(connections):
        for stub, kind in ((p, "start"), (q, "end")):
            x0 = xs[stub]
            for cj in range(len(connections)):
                lo, hi = span[cj]
                if layer[cj] < layer[ci] and lo < x0 < hi:
                    crossings[(x0, layer[cj])] = {"v": (ci, kind), "h": cj}

    # node sequences per connection
    sequences = []
    for ci, (p, q) in enumerate(connections):
        nodes = [("T", stub_home[p], p)]
        nodes += [("M", ci, mi) for mi in range(len(marks[ci]))]
        start_keys = sorted(k for k in crossings if k[0] == xs[p]
                            and crossings[k]["v"] == (ci, "start"))
        nodes += [("X", k) for k in start_keys]
        horiz = sorted((k for k in crossings
                        if k[1] == layer[ci] and crossings[k]["h"] == ci),
                       reverse=xs[q] < xs[p])
        nodes += [("X", k) for k in horiz]
        end_keys = sorted((k for k in crossings if k[0] == xs[q]
                           and crossings[k]["v"] == (ci, "end")), reverse=True)
        nodes += [("X", k) for k in end_keys]
        nodes.append(("T", stub_home[q], q))
        sequences.append(nodes)

    # lay segments, recording darts at every node
    stub_dart = {}
    mark_darts = {}  # (ci, mark idx) -> {"earlier": dart, "later": dart}
    cross_darts = {key: {} for key in crossings}
    segments = []
    path_segments = []
    for ci, nodes in enumerate(sequences):
        p, q = connections[ci]
        rightward = xs[q] > xs[p]
        segs = []
        for j in range(len(nodes) - 1):
            a, b = nodes[j], nodes[j + 1]
            da, db = f"c{ci}s{j}a", f"c{ci}s{j}b"
            for node, dart, is_next in ((a, da, True), (b, db, False)):
                if node[0] == "T":
                    stub_dart[node[2]] = dart
                elif node[0] == "M":
                    mark_darts.setdefault((node[1], node[2]), {})[
                        "later" if is_next else "earlier"] = dart
                else:
                    key = node[1]
                    info = crossings[key]
                    if info["h"] == ci and key[1] == layer[ci]:
                        # horizontal passage for this connection
                        role = ("E" if rightward else "W") if is_next else \
                               ("W" if rightward else "E")
                    else:
                        kind = info["v"][1]
                        role = ("N" if kind == "start" else "S") if is_next else \
                               ("S" if kind == "start" else "N")
                    cross_darts[key][role] = dart
            segments.append(MapEdge((da, db), f"seg_{ci}_{j}"))
            segs.append((da, db))
        path_segments.append(segs)

    vertices = []
    terminal_vertices = []
    for ti, rot in enumerate(terminals):
        vertices.append(tuple(stub_dart[s] for s in rot))
        terminal_vertices.append(ti)
    crossing_vertices = []
    crossing_rotations = []
    for key in sorted(crossings):
        roles = cross_darts[key]
        rotation = (roles["E"], roles["N"], roles["W"], roles["S"])
        crossing_vertices.append(len(vertices))
        crossing_rotations.append(rotation)
        vertices.append(rotation)
    mark_vertices = {}
    for mk in sorted(mark_darts):
        d = mark_darts[mk]
        mark_vertices[mk] = len(vertices)
        vertices.append((d["earlier"], d["later"]))

    skeleton = PlaneMap(vertices, segments)
    skeleton.require_plane()
    return (skeleton, terminal_vertices, crossing_vertices,
            crossing_rotations, mark_vertices, path_segments)


def strand_components_by_dicts(L: VirtualLinkDiagram) -> list:
    """Dart cycles of the strands, walked over ``partner`` and the rotation."""
    M = L.map
    partner = M.partner
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
            ci = M.vertex_of(incoming)
            out = L.rotation_next(ci, L.rotation_next(ci, incoming))
            if out == start:
                break
        comps.append(cycle)
    return comps


def count_cycles_by_dicts(links_a: dict, links_b: dict) -> int:
    """Cycles in the union of two perfect matchings given as dicts."""
    seen = set()
    cycles = 0
    for start in links_a:
        if start in seen:
            continue
        cycles += 1
        node = start
        use_a = True
        while True:
            seen.add(node)
            node = links_a[node] if use_a else links_b[node]
            use_a = not use_a
            if node == start and use_a:
                break
    return cycles


def side_links_by_dicts(R: RibbonGraph, edges, untwisted=()):
    """(arc, link, bare) on the side slots (h, 0), (h, 1) of the half-edges
    of ``edges``; arcs follow the rotation restricted to those half-edges."""
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


def side_cycles_by_dicts(R: RibbonGraph, edges, untwisted=()) -> int:
    arc, link, bare = side_links_by_dicts(R, edges, untwisted)
    return bare + count_cycles_by_dicts(arc, link)


def boundary_components_by_subset(R: RibbonGraph, subset) -> int:
    subset = set(subset)
    return side_cycles_by_dicts(R, subset,
                                {ei for ei in subset if R.edges[ei].sign == 1})


def bollobas_riordan_by_subsets(R: RibbonGraph) -> Polynomial:
    """B_R summed subset by subset with the dict side-slot oracle."""
    m = R.num_edges
    kR = R.components()
    total = Polynomial.const(0)
    for mask in range(1 << m):
        F = [i for i in range(m) if mask >> i & 1]
        term = ONE
        for i, e in enumerate(R.edges):
            term = term * (e.x if i in F else e.y)
        k = R.components(F)
        n = len(F) - R.num_vertices + k
        bc = boundary_components_by_subset(R, F)
        total = total + term * monomial(1, {"X": k - kR, "Y": n, "Z": k - bc + n})
    return total


def relative_tutte_by_side_links(G: RelPlaneGraph) -> Polynomial:
    """The relative Tutte sum with each state's delta traced on dict side
    slots of F u H (F untwisted) and k(F), k(F u H) by full union-finds."""
    M = G.map
    regular = G.regular_indices()
    H = sorted(G.zero)
    kG = M.components()
    total = Polynomial.const(0)
    for mask in range(1 << len(regular)):
        F = [ei for i, ei in enumerate(regular) if mask >> i & 1]
        term = ONE
        for ei in regular:
            x, y = G.weights[ei]
            term = term * (x if ei in F else y)
        kF, kFH = M.components(F), M.components(F + H)
        nF = len(F) - M.num_vertices + kF
        delta = side_cycles_by_dicts(M, F + H, set(F)) - nF
        total = total + term * monomial(1, {"X": kFH - kG, "Y": nF,
                                            "d": delta - kFH, "w": kF - kFH})
    return total


def split_by_dicts(L: VirtualLinkDiagram, state) -> int:
    """State circles: A joins each over dart to its rotation predecessor, B
    to its successor, a virtual crossing joins opposite darts, and the
    smoothing is closed against the arcs over every dart."""
    smoothing = {}
    for ci, cycle in enumerate(L.map.vertices):
        if L.kinds[ci] == "virtual":
            pairs = ((cycle[0], cycle[2]), (cycle[1], cycle[3]))
        else:
            turn = -1 if state[ci] == "A" else 1
            pairs = ((o, cycle[(cycle.index(o) + turn) % 4]) for o in L.over[ci])
        for a, b in pairs:
            smoothing[a], smoothing[b] = b, a
    return count_cycles_by_dicts(L.map.partner, smoothing) + L.free_loops


def kauffman_bracket_by_dicts(L: VirtualLinkDiagram) -> Polynomial:
    classical = L.classical
    n = len(classical)
    total = Polynomial.const(0)
    for mask in range(1 << n):
        state = {ci: ("A" if mask >> i & 1 else "B") for i, ci in enumerate(classical)}
        alpha = mask.bit_count()
        total = total + monomial(1, {"A": alpha, "B": n - alpha,
                                     "d": split_by_dicts(L, state) - 1})
    return total


def kauffman_bracket_by_states(L: VirtualLinkDiagram,
                               cap: int = DEFAULT_CROSSING_CAP) -> Polynomial:
    """The earlier ``links.kauffman_bracket``: ``state_sum`` over all 2^n
    states, counting each state's circles with ``bracket_kernel(L).cycles``."""
    kernel = bracket_kernel(L)
    n = len(L.classical)

    def term(mask):
        return (kernel.cycles(mask) - 1,)

    # a state has 0 to closed + 2n circles
    bound = kernel.closed + 2 * n + 1
    return state_sum([(var("A"), var("B"))] * n, ("d",), bound, term, cap,
                     "{n} classical crossings exceeds the cap {cap}")


def relative_tutte_by_states(G: RelPlaneGraph) -> Polynomial:
    """The enumerating ``relative_tutte``: ``state_sum`` over every subset F
    of regular edges, k(F) and k(F u H) from one join pass over F's ends and
    n(F) + delta(H_F) from the side cycles of F u H, F untwisted."""
    regular = G.regular_indices()
    M = G.map
    nv = M.num_vertices
    kG = M.components()
    kernel = relative_kernel(G)
    joins, kH = relative_merges(G)

    def term(mask):
        j, jh = joins.count_both(mask)
        kF = nv - j
        kFH = kH - jh
        nF = mask.bit_count() - nv + kF
        delta = kernel.cycles(mask) - nF
        return kFH - kG, nF, delta - kFH, kF - kFH

    m = len(regular)
    bound = nv + m + kernel.closed + 2 * m
    return state_sum([G.weights[ei] for ei in regular], ("X", "Y", "d", "w"),
                     bound, term, DEFAULT_EDGE_CAP, "{n} regular edges exceeds the cap {cap}")


def relative_tutte_by_contraction(G: RelPlaneGraph) -> Polynomial:
    """Sum over subsets F of regular edges of the weights of F and of the
    unchosen regular edges times X^(k(F u H) - k(G)) Y^(n(F)) psi(H_F)."""
    M = G.map
    regular = G.regular_indices()
    H = sorted(G.zero)
    total = Polynomial.const(0)
    for mask in range(1 << len(regular)):
        F = [ei for i, ei in enumerate(regular) if mask >> i & 1]
        term = ONE
        for ei in regular:
            x, y = G.weights[ei]
            term = term * (x if ei in F else y)
        nF = len(F) - M.num_vertices + M.components(F)
        X_Y = monomial(1, {"X": M.components(F + H) - M.components(), "Y": nF})
        total = total + term * X_Y * psi(contract_all(G, F))
    return total


def tutte_deletion_contraction(n_vertices: int, edges: list) -> Polynomial:
    """Tutte polynomial T(G; x, y) with x, y spelled as the X, Y symbols."""
    X, Y = var("X"), var("Y")

    def recurse(nv, es):
        if not es:
            return ONE
        (u, v), rest = es[0], es[1:]
        if u == v:
            return Y * recurse(nv, rest)
        if _is_bridge(nv, es, 0):
            return X * recurse(*_contracted(nv, es, 0))
        return recurse(nv, rest) + recurse(*_contracted(nv, es, 0))

    return recurse(n_vertices, list(edges))


def whitney_rank_polynomial(n_vertices: int, edges: list) -> Polynomial:
    """Sum over subsets of X^(k(F)-k) Y^(n(F)), via T(X+1, Y+1)."""
    X, Y = var("X"), var("Y")
    t = tutte_deletion_contraction(n_vertices, edges)
    return t.subs({"X": X + 1, "Y": Y + 1})


def _is_bridge(nv, edges, i):
    uf = UnionFind(range(nv))
    for j, (u, v) in enumerate(edges):
        if j != i:
            uf.union(u, v)
    u, v = edges[i]
    return uf.find(u) != uf.find(v)


def _contracted(nv, edges, i):
    u, v = edges[i]
    a, b = min(u, v), max(u, v)

    def relabel(w):
        if w == b:
            return a
        return w - 1 if w > b else w

    rest = [(relabel(p), relabel(q)) for j, (p, q) in enumerate(edges) if j != i]
    return nv - 1, rest


# -- Gauss-code bracket oracle ---------------------------------------
#
# Works directly on the code: each state circle count is obtained by
# joining passage ports (oriented smoothing at a positive crossing in the
# A-state and at a negative crossing in the B-state, disoriented
# otherwise) and counting components.  No plane map is ever built.


def _parse_code(code):
    words = []
    for chunk in code.split("|"):
        chunk = chunk.strip()
        words.append(re.findall(r"([OU])(\d+)([+-])", chunk))
    return words


def bracket_from_gauss_code(code):
    words = _parse_code(code)
    free = sum(1 for w in words if not w)
    words = [w for w in words if w]
    occs = {}   # label -> {"O": (wi, j), "U": (wi, j), "sign": s}
    for wi, word in enumerate(words):
        for j, (ou, lab, s) in enumerate(word):
            occs.setdefault(lab, {})[ou] = (wi, j)
            occs[lab]["sign"] = s
    labels = sorted(occs)
    n = len(labels)
    total = monomial(0, {})
    for mask in range(1 << n):
        uf = UnionFind([])
        for wi, word in enumerate(words):
            for j in range(len(word)):
                uf.add((wi, j, "out"))
                uf.add((wi, (j + 1) % len(word), "in"))
                uf.union((wi, j, "out"), (wi, (j + 1) % len(word), "in"))
        alpha = 0
        for bit, lab in enumerate(labels):
            state = "A" if mask >> bit & 1 else "B"
            if state == "A":
                alpha += 1
            u, v = occs[lab]["O"], occs[lab]["U"]
            oriented = (occs[lab]["sign"] == "+") == (state == "A")
            if oriented:
                uf.union((u[0], u[1], "in"), (v[0], v[1], "out"))
                uf.union((v[0], v[1], "in"), (u[0], u[1], "out"))
            else:
                uf.union((u[0], u[1], "in"), (v[0], v[1], "in"))
                uf.union((u[0], u[1], "out"), (v[0], v[1], "out"))
        delta = uf.count + free
        total = total + monomial(1, {"A": alpha, "B": n - alpha,
                                     "d": delta - 1})
    return total


def jones_from_gauss_code(code):
    words = _parse_code(code)
    w = sum(1 if s == "+" else -1 for word in words for ou, lab, s in word) // 2
    bracket = bracket_from_gauss_code(code).subs({
        "A": monomial(1, {"t": Fraction(-1, 4)}),
        "B": monomial(1, {"t": Fraction(1, 4)}),
        "d": -monomial(1, {"t": Fraction(1, 2)})
             - monomial(1, {"t": Fraction(-1, 2)}),
    })
    return monomial((-1) ** (w % 2), {"t": Fraction(3 * w, 4)}) * bracket


# -- the earlier polynomial reader -------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*^()/]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError(f"unexpected character at position {pos}: {rest[0]!r}")
        if m.group("num"):
            tokens.append(("num", m.group("num"), m.start()))
        elif m.group("name"):
            tokens.append(("name", m.group("name"), m.start()))
        else:
            tokens.append(("op", m.group("op"), m.start()))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def number(self, val: str, pos: int) -> int:
        try:
            return int(val)
        except ValueError:      # past the interpreter's integer-string limit
            raise ParseError(f"integer of {len(val)} digits at position {pos} "
                             f"is too long") from None

    def expect_op(self, op: str):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r} at position {pos} in {self.text!r}")

    def parse(self) -> Polynomial:
        terms = dict(self.term()._terms)
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.i += 1
                t = self.term()
                _accumulate(terms, (t if val == "+" else -t)._terms.items())
            elif kind is None:
                return Polynomial(terms)
            else:
                _, _, pos = self.peek()
                raise ParseError(f"unexpected token at position {pos} in {self.text!r}")

    def term(self) -> Polynomial:
        sign = 1
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.i += 1
                if val == "-":
                    sign = -sign
            else:
                break
        out = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.i += 1
                out = out * self.factor()
            else:
                break
        return out if sign == 1 else -out

    def factor(self) -> Polynomial:
        kind, val, pos = self.take()
        if kind == "num":
            return Polynomial.const(self.number(val, pos))
        if kind != "name":
            raise ParseError(f"expected a variable or number at position {pos} in {self.text!r}")
        name = val
        kind, op, _ = self.peek()
        if kind == "op" and op == "^":
            self.i += 1
            e4 = self.exponent()
        else:
            e4 = 4
        return Polynomial({((register(name), e4),): 1}) if e4 else ONE

    def exponent(self) -> int:
        kind, val, pos = self.peek()
        if kind == "op" and val == "(":
            self.i += 1
            e4 = self.signed_fraction()
            self.expect_op(")")
            return e4
        return self.signed_int() * 4

    def signed_int(self) -> int:
        sign = 1
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.i += 1
            sign = -1
        kind, val, pos = self.take()
        if kind != "num":
            raise ParseError(f"expected an integer at position {pos} in {self.text!r}")
        return sign * self.number(val, pos)

    def signed_fraction(self) -> int:
        num = self.signed_int()
        kind, val, _ = self.peek()
        den = 1
        if kind == "op" and val == "/":
            self.i += 1
            kind, val, pos = self.take()
            if kind != "num":
                raise ParseError(f"expected a denominator at position {pos} in {self.text!r}")
            den = self.number(val, pos)
            if not den:
                raise ParseError(f"zero denominator at position {pos} in {self.text!r}")
        f = Fraction(num, den) * 4
        if f.denominator != 1:
            raise ParseError(f"exponent {num}/{den} is not a quarter-integer")
        return int(f)


def parse_by_tokens(text: str) -> Polynomial:
    return _Parser(text).parse()


# -- the earlier canonical text ----------------------------------------


def canonical_by_dense_keys(p: Polynomial) -> str:
    """The earlier body of ``Polynomial.canonical``: terms sorted by a dense
    exponent tuple over the variable ids present, each factor rendered per
    term through a ``Fraction``."""
    if not p._terms:
        return "0"
    # ids absent from p are 0 in every term and cannot change the order
    vids = sorted({vid for key in p._terms for vid, _ in key})

    def dense(key) -> tuple:
        m = dict(key)
        return tuple(m.get(i, 0) for i in vids)

    items = sorted(p._terms.items(), key=lambda kv: dense(kv[0]),
                   reverse=True)
    parts = []
    for i, (key, c) in enumerate(items):
        body = _render_term(key, c)
        if i == 0:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts)


def _render_term(key, c: int) -> str:
    factors = []
    extras = [(vid, e4) for vid, e4 in key if vid >= _NUM_BUILTINS]
    builtin = [(vid, e4) for vid, e4 in key if vid < _NUM_BUILTINS]
    for vid, e4 in extras + builtin:
        factors.append(_render_factor(vid, e4))
    if not factors:
        return _decimal(abs(c))
    body = "*".join(factors)
    if abs(c) != 1:
        body = f"{_decimal(abs(c))}*{body}"
    return body


def _render_factor(vid: int, e4: int) -> str:
    name = var_name(vid)
    if e4 == 4:
        return name
    f = Fraction(e4, 4)
    if f.denominator == 1:
        return f"{name}^{_decimal(f.numerator)}"
    return f"{name}^({_decimal(f.numerator)}/{f.denominator})"


def parse_vld_by_tokens(text: str) -> VirtualLinkDiagram:
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


def link_to_tait_by_adjacency(L) -> RelPlaneGraph:
    """The relative plane Tait graph of a virtual link diagram.

    Faces are checkerboard colored per component with the face holding the
    smallest dart white; black faces become vertices, classical crossings
    signed regular edges, virtual crossings 0-edges.  Crossing-free
    components contribute isolated vertices.
    """
    M = L.map
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


def side_slots_by_blocks(R: RibbonGraph, present) -> tuple[list, list, list]:
    """(darts, arc, link) on the int side slots of every half-edge: slot s
    is side s & 1 of darts[s >> 1], edge e owns slots 4e..4e+3, arcs join
    (h, 1) to (g, 0) for g the rotation successor of h, and edge e links its
    slots by ``present[e]``, by CLOSED when it is missing."""
    darts: list = []
    link: list = []
    for b, e in enumerate(R.edges):
        darts += e.ends
        x = present.get(b, CLOSED)
        link += (4 * b ^ x, (4 * b + 1) ^ x, (4 * b + 2) ^ x, (4 * b + 3) ^ x)
    slot = {h: 2 * i for i, h in enumerate(darts)}
    arc = [0] * len(link)
    for cycle in R.vertices:
        if cycle:
            prev = slot[cycle[-1]] + 1
            for h in cycle:
                arc[prev], arc[slot[h]] = slot[h], prev
                prev = slot[h] + 1
    return darts, arc, link


def plane_to_ribbon_by_medial_walk(G: RelPlaneGraph) -> RibbonGraph:
    """Rebuild a ribbon graph from the medial circles of the 0-edge subgraph.

    Each circle of the straight-ahead tracing of H, walked on uncollapsed
    side slots from the 0-edge darts in name order, becomes a vertex disc;
    the ends of the regular edges ride along as arrows whose direction flag
    records whether their vertex arc was traversed counterclockwise.  An
    edge whose two flags agree is untwisted.
    """
    M = G.map
    darts, arc, link = side_slots_by_blocks(M, dict.fromkeys(G.zero, SAME_SIDE))
    zero_darts = {h for i in G.zero for h in M.edges[i].ends}

    starts = sorted((s for s in range(len(arc)) if darts[s >> 1] in zero_darts),
                    key=lambda s: (str(darts[s >> 1]), s & 1))
    # a regular end is passed through its closed link, entered at an arc target
    # (odd position); entering at side 0 means the arc runs counterclockwise
    circles = [[(darts[t >> 1], not t & 1) for t in cycle[1::2]
                if darts[t >> 1] not in zero_darts]
               for cycle in cycles(arc, link, starts)]
    # vertices without any 0-edge end are circles of their own
    circles.extend([(end, True) for end in cycle] for cycle in M.vertices
                   if not zero_darts.intersection(cycle))

    flag = {end: f for circle in circles for end, f in circle}
    vertices = [tuple(end for end, _ in circle) for circle in circles]
    redges = []
    for i in G.regular_indices():
        h1, h2 = M.edges[i].ends
        x, y = G.weights[i]
        redges.append(Edge((h1, h2), 1 if flag[h1] == flag[h2] else -1, x, y,
                           M.edges[i].label))
    return RibbonGraph(vertices, redges)


def flip_equivalent(R: RibbonGraph, S: RibbonGraph) -> bool:
    """Whether S is R up to vertex order, rotation start and vertex flips.

    The edges must agree in order, ends, label and weights, and the discs
    as cyclic orders, each read either way.  Flipping a disc reverses its
    rotation and every sign at it, so each sign of S must be R's times the
    flips of the edge's two end discs; a disc of degree 2 or less reads the
    same either way and flips freely.
    """
    if [(e.ends, e.label, e.x, e.y) for e in R.edges] != \
            [(e.ends, e.label, e.x, e.y) for e in S.edges]:
        return False
    if sorted(map(len, R.vertices)) != sorted(map(len, S.vertices)):
        return False
    allowed = []                        # the flips each disc of R may take
    for v in R.vertices:
        if not v:
            allowed.append({1})
            continue
        w = S.vertices[S.vertex_of(v[0])]
        k = w.index(v[0])
        w = w[k:] + w[:k]
        allowed.append({f for f, u in ((1, w), (-1, w[:1] + w[:0:-1])) if u == v})
    adjacent: dict = {}
    for e, f in zip(R.edges, S.edges):
        u, v = map(R.vertex_of, e.ends)
        adjacent.setdefault(u, []).append((v, e.sign * f.sign))
        adjacent.setdefault(v, []).append((u, e.sign * f.sign))
    flip: dict = {}
    for root in range(R.num_vertices):
        if root in flip:
            continue
        for first in allowed[root]:
            trial, stack, ok = {root: first}, [root], True
            while stack and ok:
                u = stack.pop()
                for v, sign in adjacent.get(u, ()):
                    want = trial[u] * sign
                    if v in trial:
                        ok = ok and trial[v] == want
                    elif want in allowed[v]:
                        trial[v] = want
                        stack.append(v)
                    else:
                        ok = False
            if ok:
                flip.update(trial)
                break
        else:
            return False
    return True
