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
"""

from __future__ import annotations

from rgpoly.links import VirtualLinkDiagram
from rgpoly.planemap import RelPlaneGraph, contract_all, psi
from rgpoly.poly import ONE, Polynomial, monomial, var
from rgpoly.ribbon import RibbonGraph
from rgpoly.util import UnionFind


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

import re as _re
from fractions import Fraction


def _parse_code(code):
    words = []
    for chunk in code.split("|"):
        chunk = chunk.strip()
        words.append(_re.findall(r"([OU])(\d+)([+-])", chunk))
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
