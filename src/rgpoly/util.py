"""Small shared helpers on int nodes: the one union-find, the one matching
walker and the compiled state kernel that all three state sums run on.

``roots`` gives every node's class once pairs are joined, and ``Merges``
counts the joins a state's few edges make, on their ends and, in the same
pass, on coarser classes of the ends.  ``cycles`` lists the cycles of
two perfect matchings node by node; ``count_cycles`` only counts them.

A state sum counts, per state, the cycles of two such matchings: a fixed
``arc`` matching (disc arcs over the full rotation, or a diagram's arcs)
and a ``link`` matching that partly depends on the state (an edge absent
from a state self-links its slots instead of leaving the rotation, so the
arcs never change).  ``CycleKernel`` compiles this once.  The live nodes,
whose link changes from state to state, come first, four per enumerated
element.  Every other node has a fixed link, so the walk from a live node
through arc, fixed link, arc, ... up to the next live node is the same in
every state: ``collapse`` walks it once and keeps only the matching it
induces on the live nodes, plus the number of cycles that never meet a live
node.  A state then fills 4m links (``links``) and calls ``count_cycles``
once, so it costs O(m) however large the drawn map is.  ``census`` counts
all 2^m states without visiting them: one frontier pass over the elements,
whose cost the number of open slots at once sets and whose memory
``CENSUS_ENTRIES`` bounds.  It runs several kernels that share their
choices at once, keyed by each kernel's cycles and by the set bits in each
weight class of the elements: the Kauffman bracket counts one kernel in
one class, and the relative Tutte polynomial of a genus-0 map with few
weight pairs three kernels in one class per pair.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import SizeLimit

# Histogram entries a census step may end with.  An entry costs about 170
# bytes; seeded 30- and 36-crossing links peak at about 29k and 871k.
CENSUS_ENTRIES = 1 << 21


def roots(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """The class of every node of range(n) once each pair is joined.

    Two nodes get the same representative node exactly when a chain of
    pairs joins them, so ``len(set(roots(n, pairs)))`` counts the classes.
    """
    parent = list(range(n))

    def find(u):
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        return u

    for u, v in pairs:
        u, v = find(u), find(v)
        if u != v:
            parent[u] = v
    return [find(u) for u in range(n)]


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


def cycles(a: Sequence[int], b: Sequence[int],
           starts: Iterable[int]) -> list[list[int]]:
    """The cycles of two perfect matchings on range(len(a)) through ``starts``.

    Each cycle is listed once, from the first of ``starts`` on it, as
    s, a[s], b[a[s]], a[b[a[s]]], ...: even positions are reached by b
    (or start), odd positions by a.
    """
    seen = bytearray(len(a))
    out = []
    for node in starts:
        if seen[node]:
            continue
        cycle = []
        while not seen[node]:
            seen[node] = 1
            cycle.append(node)
            node = a[node]
            seen[node] = 1
            cycle.append(node)
            node = b[node]
        out.append(cycle)
    return out


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

    def links(self, mask: int) -> list:
        """The link partner of every live slot in the state ``mask``."""
        link: list = []
        for j, pair in enumerate(self._links):
            link += pair[mask >> j & 1]
        return link

    def cycles(self, mask: int) -> int:
        return self.closed + count_cycles(self.arc, self.links(mask))


def census(kernels: Sequence[CycleKernel], classes: Sequence[int] = ()) -> dict:
    """{(ones, cycles): the number of masks with ``ones[c]`` set bits among
    the elements of class c and ``kernels[k].cycles(mask)`` = ``cycles[k]``},
    in one frontier pass.

    The kernels share their choices (the same links on the live slots) and
    differ only in what they collapsed.  ``classes[j]`` is element j's class
    (default: every element in class 0); the classes are range(1 + the
    largest).  The pass runs on one product kernel: slot s of kernel k is
    4K * (s >> 2) + 4k + (s & 3), so element j owns the 4K slots from 4Kj
    and a path never leaves its kernel.

    The elements are taken in the first kernel's greedy order: next, the
    one whose slots close the most of its arcs to processed slots, ties to
    the lowest index.  (Counting every kernel's arcs reads the narrower
    kernels as much as the widest and can widen the frontier: on the three
    kernels of a 24-crossing Tait graph it held five times the states.)
    The frontier is the processed slots whose arc partner is not yet
    processed; the processed links and arcs leave paths between them.
    A partial state is how the paths pair up the frontier, as the tuple of
    each frontier slot's partner's position in the frontier, mapped to a
    histogram of the partial masks by per-class set bits and per-kernel
    closed cycles, packed mixed-radix into one int; states with equal
    pairings merge.  A step lists the frontier and then the element's own
    slots as the ends, and closes its arcs on a list of partner positions.
    After k elements there are at most 2^k pairings, so the pass never
    holds more states than the masks it counts.  A step that ends with more
    than ``CENSUS_ENTRIES`` histogram entries raises ``SizeLimit``; as a
    step at most doubles them, the pass never holds more than three times
    that many.
    """
    first = kernels[0]
    m, K = len(first._links), len(kernels)
    if any(kernel._links != first._links for kernel in kernels):
        raise ValueError("census kernels must share their choices")
    classes = list(classes) or [0] * m
    sizes = [0] * (max(classes, default=0) + 1)
    for c in classes:
        sizes[c] += 1
    width = 4 * K
    place = [s + (width - 4) * (s >> 2) for s in range(4 * m)]   # slot s of kernel 0
    arc = [0] * (width * m)
    for k, kernel in enumerate(kernels):
        k *= 4
        for s, t in zip(place, kernel.arc):
            arc[s + k] = place[t] + k
    offsets = range(0, width, 4)
    links = [[tuple([place[t] + k for k in offsets for t in link]) for link in pair]
             for pair in first._links]
    # key = sum of cycles[k] * span^k, then ones[c] * span^K * prod(sizes[:c] + 1)
    span = 2 * m + 1                # a cycle holds two live slots or more
    unit = [span ** k for k in range(K) for _ in range(4)]
    radix = [span ** K]
    for n in sizes:
        radix.append(radix[-1] * (n + 1))
    pending = [0] * m               # first-kernel arcs from each element to processed slots
    todo = list(range(m))
    processed = bytearray(width * m)
    block = b"\1" * width
    frontier: list = []
    states = {(): {0: 1}}
    while todo:
        j = max(todo, key=pending.__getitem__)      # todo ascends: ties to the lowest
        todo.remove(j)
        start = width * j
        own = range(start, start + width)
        processed[start:start + width] = block
        for s in own[:4]:
            if not processed[t := arc[s]]:
                pending[t // width] += 1
        ends = frontier + list(own)
        at = dict(zip(ends, range(len(ends))))
        # each arc closed now, an arc inside the element once, with the
        # unit of its kernel's closed cycles
        joins = [(at[s], at[t], unit[s - start]) for s in own
                 if processed[t := arc[s]] and (t // width != j or t > s)]
        keep = [i for i, s in enumerate(ends) if not processed[arc[s]]]
        renumber = [0] * len(ends)
        for i, e in enumerate(keep):
            renumber[e] = i
        base = len(frontier) - start
        choices = [(shift, tuple([base + t for t in link]))
                   for shift, link in zip((0, radix[classes[j]]), links[j])]
        nxt: dict = {}
        for pairing, histogram in states.items():
            for shift, link in choices:
                pair = [*pairing, *link]
                for s, t, closes in joins:
                    u, v = pair[s], pair[t]
                    if u == t:
                        shift += closes
                    else:
                        pair[u] = v
                        pair[v] = u
                out = nxt.setdefault(
                    tuple(map(renumber.__getitem__, map(pair.__getitem__, keep))), {})
                for key, count in histogram.items():
                    out[key + shift] = out.get(key + shift, 0) + count
        if sum(map(len, nxt.values())) > CENSUS_ENTRIES:
            raise SizeLimit(f"the census of {m} elements holds more than "
                            f"{CENSUS_ENTRIES} histogram entries")
        states = nxt
        frontier = list(map(ends.__getitem__, keep))
    out = {}
    for key, count in states[()].items():
        closed = []
        for kernel in kernels:
            key, c = divmod(key, span)
            closed.append(kernel.closed + c)
        ones = []
        for n in sizes:
            key, a = divmod(key, n + 1)
            ones.append(a)
        out[tuple(ones), tuple(closed)] = count
    return out
