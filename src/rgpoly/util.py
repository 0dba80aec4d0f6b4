"""Small shared helpers: union-finds, the one cycle counter and the compiled
state kernel that all three state sums run on.

A state sum counts, per state, the cycles of two perfect matchings on int
nodes: a fixed ``arc`` matching (disc arcs over the full rotation, or a
diagram's arcs) and a ``link`` matching that partly depends on the state
(an edge absent from a state self-links its slots instead of leaving the
rotation, so the arcs never change).  ``CycleKernel`` compiles this once.
The live nodes, whose link changes from state to state, come first, four
per enumerated element.  Every other node has a fixed link, so the walk
from a live node through arc, fixed link, arc, ... up to the next live
node is the same in every state: ``collapse`` walks it once and keeps only
the matching it induces on the live nodes, plus the number of cycles that
never meet a live node.  A state then fills 4m links and calls
``count_cycles`` once, so it costs O(m) however large the drawn map is.
"""

from __future__ import annotations

from typing import Sequence


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


class Merges:
    """Joins made by subsets of a few edges, on the edges' ends alone.

    ``count(mask)`` is the number of edges ``ends[j]`` with bit j of
    ``mask`` set that join two different classes, so a spanning subgraph
    on n classes has n - count(mask) components.  Each call costs
    O(len(ends)), not O(n).
    """

    def __init__(self, ends: Sequence[tuple]):
        ids: dict = {}
        self.ends = [(ids.setdefault(u, len(ids)), ids.setdefault(v, len(ids)))
                     for u, v in ends]
        self.size = len(ids)

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


def count_cycles(a: Sequence[int], b: Sequence[int],
                 seen: bytearray | None = None) -> int:
    """Number of cycles in the union of two perfect matchings on range(len(a)).

    ``a[i]`` and ``b[i]`` are the partners of node i; alternating the two
    matchings closes up into disjoint cycles.  Nodes already marked in
    ``seen`` are skipped, and every node visited is marked.
    """
    if seen is None:
        seen = bytearray(len(a))
    cycles = 0
    for start in range(len(a)):
        if seen[start]:
            continue
        cycles += 1
        node = start
        while not seen[node]:
            seen[node] = 1
            node = a[node]
            seen[node] = 1
            node = b[node]
    return cycles


def collapse(arc: Sequence[int], fixed: Sequence[int], live: int) -> tuple[list, int]:
    """Shortcut the fixed part of two matchings on range(len(arc)).

    Nodes below ``live`` are live; every other node i has the fixed link
    ``fixed[i]``.  Returns the matching that the walks arc, fixed, arc, ...
    induce on the live nodes, and the number of cycles made of fixed nodes
    only.
    """
    seen = bytearray(len(arc))
    out = [-1] * live
    for s in range(live):
        if out[s] >= 0:
            continue
        seen[s] = 1
        t = arc[s]
        while t >= live:
            seen[t] = 1
            t = fixed[t]
            seen[t] = 1
            t = arc[t]
        out[s], out[t] = t, s
        seen[t] = 1
    return out, count_cycles(arc, fixed, seen)


class CycleKernel:
    """Cycle counts of a family of states, compiled once.

    Node 4j + i (i < 4) is the i-th live node of enumerated element j;
    ``choices[j]`` gives, for bit j of a state's mask clear and set, the
    xor that takes each of the four nodes to its link partner.  Nodes from
    4 * len(choices) on are fixed, linked by ``fixed``.  ``extra`` adds
    cycles that involve no node at all (bare vertices, free loops).
    """

    def __init__(self, arc: Sequence[int], fixed: Sequence[int],
                 choices: Sequence[tuple[int, int]], extra: int = 0):
        self.arc, closed = collapse(arc, fixed, 4 * len(choices))
        self.closed = closed + extra
        self._links = [tuple(tuple(s ^ x for s in range(4 * j, 4 * j + 4))
                             for x in pair)
                       for j, pair in enumerate(choices)]

    def cycles(self, mask: int) -> int:
        link: list = []
        for j, pair in enumerate(self._links):
            link += pair[mask >> j & 1]
        return self.closed + count_cycles(self.arc, link)
