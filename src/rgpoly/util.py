"""Small shared helpers on int nodes: the one union-find, the one matching
walker and the compiled state kernel that all three state sums run on.

``roots`` gives every node's class once pairs are joined.  ``cycles`` lists
the cycles of two perfect matchings node by node; ``count_cycles`` only
counts them.

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
once, so it costs O(m) however large the drawn map is.  ``sweep`` visits
all 2^m states depth first instead: each step collapses one element's four
slots into the arcs of the elements still open (a copy of the arcs and at
most four entries changed), so a state costs O(m) at most, and it counts the joins the set elements make
in one or more partitions of their ends on the way down (the components of
a spanning subgraph, and of it with H).  B_R and the relative Tutte
polynomial with per-edge weights read their states off it.  ``census`` counts
all 2^m states without visiting them: one frontier pass over the elements,
whose cost the number of open slots at once sets and whose memory
``CENSUS_ENTRIES`` bounds.  It runs several kernels that share their
choices at once, keyed by each kernel's cycles and by the set bits in each
weight class of the elements: the Kauffman bracket counts one kernel in
one class, and the relative Tutte polynomial of a genus-0 map with few
weight pairs three kernels in one class per pair.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

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


# the states of the last _BLOCK elements of a sweep go out as one list
_BLOCK = 8


def sweep(kernel: CycleKernel, ends: Sequence[Sequence[tuple[int, int]]] = (),
          sizes: Sequence[int] = ()) -> Iterator[list]:
    """Every state of ``kernel`` as (mask, ``kernel.cycles(mask)``, joins...),
    in ascending mask order and in lists of at most 2^_BLOCK states.

    ``ends[p][j]`` is the pair of labels in range(``sizes[p]``) that element
    j joins in partition p when its bit is set, and the state's p-th join
    count is the number of set elements that join two different classes of
    partition p, as ``roots`` would find them.

    A depth-first walk over the elements from the last to the first, bit
    clear before bit set.  At element j the arc matching on the slots of
    elements 0..j is what the paths through the elements above j leave:
    linking j's four slots joins the arc partners of each linked pair, at
    most four entries, and a pair that are each other's arc partners closes
    a cycle.  Element 0 is then alone, and its arc matching is either its
    link (two cycles) or not (one).  Each level holds one copy of the arcs
    and, per partition, the class of every label, relabelled on a join, so
    the walk holds O(m) lists, each of the 4m arcs or of one partition's
    labels, and recurses at most m deep.
    """
    m = len(kernel._links)
    # per element, for bit clear and set: its two link pairs (s, t, u, v)
    pairs = []
    for j, choice in enumerate(kernel._links):
        s = 4 * j
        row = []
        for link in choice:
            t = link[0]
            u = s + 1 if t != s + 1 else s + 2
            row.append((s, t, u, link[u - s]))
        pairs.append(row)
    ends = list(zip(*ends)) or [()] * m      # per element, one pair per partition
    labels = tuple(list(range(n)) for n in sizes)
    joins = (0,) * len(sizes)
    if not m:
        yield [(0, kernel.closed, *joins)]
        return
    last0, last1 = pairs[0][0][1], pairs[0][1][1]

    def join(j, labels, joins):
        for p, (u, v) in enumerate(ends[j]):
            label = labels[p]
            a, b = label[u], label[v]
            if a != b:
                labels = (*labels[:p], [a if x == b else x for x in label], *labels[p + 1:])
                joins = (*joins[:p], joins[p] + 1, *joins[p + 1:])
        return labels, joins

    def walk(j, arc, closed, mask, labels, joins, out, stop):
        """Append to ``out`` the states that elements j, j-1, ... leave,
        down to the state before element ``stop``, or every state."""
        if j == stop:
            out.append((arc, closed, mask, labels, joins))
        elif j:
            for bit, (s, t, u, v) in enumerate(pairs[j]):
                a = arc if bit else arc[:]      # bit set takes the parent's list
                c = closed
                p, q = a[s], a[t]
                if p == t:
                    c += 1
                else:
                    a[p], a[q] = q, p
                p, q = a[u], a[v]
                if p == v:
                    c += 1
                else:
                    a[p], a[q] = q, p
                if bit:
                    walk(j - 1, a, c, mask | 1 << j, *join(j, labels, joins), out, stop)
                else:
                    walk(j - 1, a, c, mask, labels, joins, out, stop)
        else:
            a = arc[0]
            out.append((mask, closed + (a == last0) + 1, *joins))
            out.append((mask | 1, closed + (a == last1) + 1, *join(0, labels, joins)[1]))

    def levels(j, state):
        out: list = []
        if j < _BLOCK:
            walk(j, *state, out, -1)
            yield out
        else:
            walk(j, *state, out, j - 1)
            for child in out:
                yield from levels(j - 1, child)

    yield from levels(m - 1, (list(kernel.arc), kernel.closed, 0, labels, joins))


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
