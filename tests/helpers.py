"""Independent oracles used by the test suite.

These deliberately avoid the library's subset-enumeration code paths: the
Tutte oracle is a plain deletion-contraction recursion on an abstract
multigraph, the bracket oracle is a from-scratch state sum working on
planar diagram combinatorics only, and the relative Tutte oracle builds
every contracted remainder H_F with ``contract_all`` and weights it with
``psi``.
"""

from __future__ import annotations

from rgpoly.planemap import RelPlaneGraph, contract_all, psi
from rgpoly.poly import ONE, Polynomial, monomial, var
from rgpoly.util import UnionFind


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
