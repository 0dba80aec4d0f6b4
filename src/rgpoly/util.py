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
element, whose one record is its xor choice pair (``CycleKernel``).  Every
other node has a fixed link, so the walk from a live node through arc,
fixed link, arc, ... up to the next live node is the same in every state:
``collapse`` walks it once and keeps only the matching it induces on the
live nodes, plus the number of cycles that never meet a live node.  A state
then fills 4m links (``links``) and calls ``count_cycles`` once, so it
costs O(m) however large the drawn map is.

Two engines yield the same records (index, ones, cycles, joins...,
count).  ``sweep`` visits the 2^m states depth first, each element a
weight class of its own, in O(m^2) memory; past a few elements it lists
the states of its last elements from per-call tables of columns, one per
boundary state (the arc matching on their slots, the classes of their
ends' labels) and bounded in number, since many states above share one, as
Haggard, Pearce and Royle's isomorphism cache shares subgraphs ("Computing
Tutte polynomials", ACM TOMS 2010).  It yields its states as a lazy
stream of blocks (``Sweep``), each a base record and bytes columns of
popcounts, cycles and joins per partition over the 2^6 sub-masks of its
last elements, so that ``poly.class_sum`` packs a block's values at once
and, under coefficient-1 monomial weights, counts its keys in at once; its
records are the flattening of that stream.  ``census`` counts them in one
frontier pass by set bits per class of equal (x, y) weight pairs, as
Sekine, Imai and Tani's transfer-matrix pass does (ISAAC 1995), in memory
that ``CENSUS_ENTRIES`` bounds.  B_R always sweeps; ``tally`` picks the
engine for the relative Tutte polynomial and the bracket.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain, repeat
from math import prod
from operator import add, mul
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
    ``choices[j]``, the kernel's one record of element j, gives for bit j
    of a state's mask clear and set the xor in {1, 2, 3} that takes each of
    the four nodes to its link partner.  Nodes from 4 * len(choices) on are
    fixed, linked by ``fixed``.  ``extra`` adds cycles that involve no node
    at all (bare vertices, free loops).
    """

    def __init__(self, arc: Sequence[int], fixed: Sequence[int],
                 choices: Sequence[tuple[int, int]], extra: int = 0):
        self.arc, closed = collapse(arc, fixed, 4 * len(choices))
        self.closed = closed + extra
        self.choices = list(choices)

    def links(self, mask: int) -> list:
        """The link partner of every live slot in the state ``mask``."""
        link: list = []
        for j, pair in enumerate(self.choices):
            x, s = pair[mask >> j & 1], 4 * j
            link += (s ^ x, (s + 1) ^ x, (s + 2) ^ x, (s + 3) ^ x)
        return link

    def cycles(self, mask: int) -> int:
        return self.closed + count_cycles(self.arc, self.links(mask))


# A sweep of more than _BLOCK + 1 elements lists the states of its last
# _BLOCK elements, 2^_BLOCK at a time, from columns that the call keeps in
# tables; a shorter one is walked whole, as below four states of the
# elements above the block the tables did not pay for themselves (seeded
# B_R and relative Tutte kernels at m = 7-14, block sizes 4-8).  A table
# holds at most _TABLE_ENTRIES columns of 2^_BLOCK bytes, keyed by at most
# 4 * _BLOCK bytes, and is cleared when full, so the tables stay under about
# 100 KB each whatever m is.
_BLOCK = 6
_TABLE_ENTRIES = 512
# labels are bytes, one per label of a partition
_LABELS = 256


class Sweep:
    """The states of a ``sweep``: an iterator of its records, and
    underneath them the blocks it lists them from.

    A block (record, columns) is a base state's record (mask, ones,
    cycles, joins..., 1) and bytes columns over its 2^b sub-masks s < 2^b:
    the state mask + s has the record's values (ones, cycles, joins...)
    plus columns[i][s] of each, and a count of 1.  The masks of a block
    are consecutive and its base mask is a multiple of 2^b.  ``width`` is
    b, the same for every block, or 0 if the sweep lists its records one
    by one, each a block of one state with no columns (None).  Iterating
    gives the records, the blocks flattened in order; ``blocks()`` gives
    the blocks.  Either is read once, lazily, so a sweep holds one block
    at a time."""

    __slots__ = ("width", "_items", "_records")

    def __init__(self, width: int, items: Iterable):
        # the records, or with a width, the blocks
        self.width = width
        self._items = items
        self._records = None

    def __iter__(self) -> Iterator[tuple]:
        # the records' own iterator, so that a loop over them calls no
        # method of the sweep per record
        if self._records is None:
            self._records = (chain.from_iterable(map(_records, self._items)) if self.width
                             else iter(self._items))
        return self._records

    def __next__(self) -> tuple:
        return next(iter(self))

    def blocks(self) -> Iterator[tuple]:
        return iter(self._items) if self.width else zip(self._items, repeat(None))


def _records(block: tuple) -> list:
    """The records of a sweep's block, read off its columns."""
    record, columns = block
    return [tuple(map(add, record, (s, *values, 0))) for s, values in enumerate(zip(*columns))]


def sweep(kernel: CycleKernel, ends: Sequence[Sequence[tuple]] = ()) -> Sweep:
    """Every state of ``kernel`` as a record (mask, ones, cycles, joins...,
    1) in ascending mask order: ones is the mask's set bits, cycles
    ``kernel.cycles(mask)``, and the mask is its own ``poly.class_sum``
    index when each element is a weight class of its own.  The records
    are the flattening of a stream of blocks (``Sweep``), each a base
    record and columns, which ``poly.class_sum`` reads whole.

    ``ends[p][j]`` is the pair of labels, any hashables, that element j
    joins in partition p when its bit is set, and the state's p-th join
    count is the number of set elements that join two different classes of
    partition p, as ``roots`` would find them.  Each partition's labels
    are numbered by first appearance, one byte each, so a partition with
    more than ``_LABELS`` of them raises ``SizeLimit`` at the call.

    A depth-first walk over the elements from the last to the first, bit
    clear before bit set.  Element j's links under the xor x that its bit
    picks from its choice pair are (s, s ^ x) and (u, u ^ x), where s = 4j
    and u is the lowest of its slots other than s and s ^ x.  At element j
    the arc matching on the slots of elements 0..j is what the paths
    through the elements above j leave: linking j's four slots joins the arc
    partners of each linked pair, at most four entries, and a pair that are
    each other's arc partners closes a cycle.  Element 0 is then alone, and
    its arc matching is either its link (two cycles) or not (one); elements
    1 and 0 are walked in one frame.  Each level holds its copy of the arcs
    on the slots of elements 0..j and, per partition, the class of every
    label as a bytes string, relabelled on a join, so the walk holds O(m)
    lists and strings of at most 4m entries and recurses at most m deep.

    A walk of at most ``_BLOCK + 1`` elements gives its records, each a
    block of one state: a lone block shares its columns with no other, so
    packing them costs ``poly.class_sum`` about what its records do, and
    more at m <= 3.  Past that the walk stops above the last ``_BLOCK``
    (the block), and the states below one of its states depend on two things
    only: the arc matching on the block's 4 * _BLOCK slots, and, per
    partition, which of the labels that the block's ends carry share a
    class.  So the call keeps a table of cycle columns, keyed by the bytes
    of that arc matching, and per partition a table of join columns, keyed
    by the classes of the block's end labels renumbered by first
    appearance; column entry s is what the block's sub-mask s adds.  A state
    whose columns are all known is a block of those columns and the
    popcounts of the sub-masks, with no record built; any other is walked,
    and its records give the missing columns.  A table is cleared when it
    holds ``_TABLE_ENTRIES`` columns, so the tables' memory does not grow
    with m.  The records and their order are the walk's in either case.
    """
    m = len(kernel.choices)
    # per element, for bit clear and set: its two link pairs (s, s^x, u, u^x)
    pairs = []
    for s, (x, y) in zip(range(0, 4 * m, 4), kernel.choices):
        u, v = s + 1 + (x == 1), s + 1 + (y == 1)
        pairs.append(((s, s ^ x, u, u ^ x), (s, s ^ y, v, v ^ y)))
    numbers: list = [{} for _ in ends]
    # per element, one pair per partition, each label its partition's number
    ends = [[(n.setdefault(u, len(n)), n.setdefault(v, len(n))) for n, (u, v) in zip(numbers, row)]
            for row in zip(*ends)] or [()] * m
    for n in numbers:
        if len(n) > _LABELS:
            raise SizeLimit(f"{len(n)} labels in one partition exceeds the "
                            f"sweep's limit {_LABELS}")
    labels = tuple(bytes(range(len(n))) for n in numbers)
    joins = (0,) * len(numbers)
    arc = list(kernel.arc)
    if not m:
        return Sweep(0, [(0, 0, kernel.closed, *joins, 1)])
    last0, last1 = pairs[0][0][1], pairs[0][1][1]

    def set0(labels, joins):
        """The joins of a state once element 0's bit is set."""
        return [j + (label[u] != label[v]) for j, label, (u, v) in zip(joins, labels, ends[0])]

    if m == 1:
        return Sweep(0, [(0, 0, kernel.closed + (arc[0] == last0) + 1, *joins, 1),
                         (1, 1, kernel.closed + (arc[0] == last1) + 1, *set0(labels, joins), 1)])

    def join(j, labels, joins):
        for p, (u, v) in enumerate(ends[j]):
            label = labels[p]
            if label[u] != label[v]:
                labels = (*labels[:p], label.replace(label[v:v + 1], label[u:u + 1]),
                          *labels[p + 1:])
                joins = (*joins[:p], joins[p] + 1, *joins[p + 1:])
        return labels, joins

    def walk(j, arc, closed, mask, ones, labels, joins, out, stop=1):
        """Append to ``out`` the records of the states that elements j, j-1,
        ..., 0 leave (j >= 1), or, from a ``stop`` above 1, the states
        (arc, closed, mask, ones, labels, joins) that elements j, ..., stop
        leave."""
        for bit, (s, t, u, v) in enumerate(pairs[j]):
            a = arc if bit else arc[:4 * j + 4]     # bit set takes the parent's list
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
                mask1, ones1 = mask | 1 << j, ones + 1
                labels1, joins1 = join(j, labels, joins)
            else:
                mask1, ones1, labels1, joins1 = mask, ones, labels, joins
            if j > stop:
                walk(j - 1, a, c, mask1, ones1, labels1, joins1, out, stop)
            elif j > 1:
                out.append((a, c, mask1, ones1, labels1, joins1))
            else:
                x = a[0]
                out.append((mask1, ones1, c + (x == last0) + 1, *joins1, 1))
                out.append((mask1 | 1, ones1 + 1, c + (x == last1) + 1,
                            *set0(labels1, joins1), 1))

    if m <= _BLOCK + 1:
        out: list = []
        walk(m - 1, arc, kernel.closed, 0, 0, labels, joins, out)
        return Sweep(0, out)

    width = 4 * _BLOCK
    pop = bytes([s.bit_count() for s in range(1 << _BLOCK)])
    # per partition, the labels of the block's ends, element by element
    block_ends = [list(chain.from_iterable(row[p] for row in ends[:_BLOCK]))
                  for p in range(len(numbers))]
    cycle_columns: dict = {}
    join_columns: list = [{} for _ in numbers]

    def block(arc, closed, mask, ones, labels, joins):
        key = bytes(arc[:width])
        cycles = cycle_columns.get(key)
        keys, columns = [], []
        for flat, label, table in zip(block_ends, labels, join_columns):
            seen: dict = {}
            keys.append(bytes([seen.setdefault(label[x], len(seen)) for x in flat]))
            columns.append(table.get(keys[-1]))
        if cycles is None or None in columns:
            out: list = []
            walk(_BLOCK - 1, arc, closed, mask, ones, labels, joins, out)
            if cycles is None:
                cycles = bytes([r[2] - closed for r in out])
                _store(cycle_columns, key, cycles)
            for p, column in enumerate(columns):
                if column is None:
                    columns[p] = bytes([r[3 + p] - joins[p] for r in out])
                    _store(join_columns[p], keys[p], columns[p])
        return (mask, ones, closed, *joins, 1), (pop, cycles, *columns)

    def blocks(j, state):
        if j < _BLOCK:
            yield block(*state)
            return
        children: list = []
        walk(j, *state, children, j)
        for child in children:
            yield from blocks(j - 1, child)

    return Sweep(_BLOCK, blocks(m - 1, (arc, kernel.closed, 0, 0, labels, joins)))


def _store(table: dict, key: bytes, column: bytes) -> None:
    if len(table) >= _TABLE_ENTRIES:
        table.clear()
    table[key] = column


def census(kernel: CycleKernel, classes: Sequence[int] = (),
           ends: Sequence[Sequence[tuple]] = ()) -> list[tuple]:
    """The states of ``kernel`` counted in one frontier pass, as a list of
    ``sweep``'s records (index, ones, cycles, joins..., count) but with the
    index the set bits per class, mixed-radix as ``poly.class_sum`` reads
    it, and ones the sum of its digits.  ``classes[j]`` is element j's class
    (default: all in class 0), and ``ends`` gives the partitions as in
    ``sweep``.

    The elements are taken in greedy order: next, the one whose slots close
    the most of its arcs to processed slots, ties to the lowest index.  The
    frontier is the processed slots whose arc partner is not yet processed;
    the processed links and arcs leave paths between them.  A partial state
    is how the paths pair up the frontier (each frontier slot's partner's
    position in it) and, per partition, the classes of the labels that a
    processed element has an end on and an unprocessed one still has (the
    open labels), numbered by first occurrence, so equal states merge.  It
    maps to a histogram of the partial masks by cycles, joins per partition
    and set bits per class, packed mixed-radix into one int in that order,
    so the index is the key over the first class digit's place.
    A step closes the element's arcs on a list of partner positions, the
    frontier's and then its own slots', each own slot s linked to s ^ x
    for the xor x of the element's choice pair that its bit picks; the
    classes change only at its ends, so they are worked out once per
    distinct tuple of them.  After k elements there are at most 2^k states.
    A step that ends with more than ``CENSUS_ENTRIES`` histogram entries
    raises ``SizeLimit`` (at the call, as the records are listed); as a
    step at most doubles them, the pass never holds more than three times
    that many.
    """
    m = len(kernel.choices)
    classes = list(classes) or [0] * m
    counts = [classes.count(c) for c in range(max(classes, default=0) + 1)]
    arc = kernel.arc
    # the key's digits: cycles (a cycle holds two live slots or more), the
    # joins of each partition, then the set bits of each class
    radices = [2 * m + 1] + [m + 1] * len(ends) + [n + 1 for n in counts]
    place = list(accumulate(radices, mul, initial=1))
    top = 1 + len(ends)             # the first class digit
    left = [Counter(chain.from_iterable(pairs)) for pairs in ends]     # unprocessed ends
    opened: list = [[] for _ in ends]
    pending = [0] * m               # arcs from each element to processed slots
    todo = list(range(m))
    processed = bytearray(4 * m)
    frontier: list = []
    states = {((), ((),) * len(ends)): {0: 1}}
    while todo:
        j = max(todo, key=pending.__getitem__)      # todo ascends: ties to the lowest
        todo.remove(j)
        start = 4 * j
        own = range(start, start + 4)
        processed[start:start + 4] = b"\1\1\1\1"
        for s in own:
            if not processed[t := arc[s]]:
                pending[t >> 2] += 1
        slots = frontier + list(own)
        at = dict(zip(slots, range(len(slots))))
        # each arc closed now, an arc inside the element once
        closes = [(at[s], at[t]) for s in own
                  if processed[t := arc[s]] and (t >> 2 != j or t > s)]
        keep = [i for i, s in enumerate(slots) if not processed[arc[s]]]
        renumber = dict(zip(keep, range(len(keep))))
        base = len(frontier) - start
        choices = [(shift, tuple([base + (s ^ x) for s in own])) for shift, x
                   in zip((0, place[top + classes[j]]), kernel.choices[j])]
        # per partition: fresh classes for the element's ends that open now,
        # the positions of its ends, which labels stay open, a join's unit
        parts = []
        for p, labels in enumerate(opened):
            u, v = ends[p][j]
            n = len(labels)
            labels = labels + [w for w in dict.fromkeys((u, v)) if w not in labels]
            left[p].subtract((u, v))
            stay = [i for i, w in enumerate(labels) if left[p][w]]
            parts.append((range(n, len(labels)), labels.index(u), labels.index(v),
                          stay, place[1 + p]))
            opened[p] = [labels[i] for i in stay]
        relabelled: dict = {}
        nxt: dict = {}
        for (pairing, tracked), histogram in states.items():
            after = relabelled.get(tracked)
            if after is None:
                after = relabelled[tracked] = _relabel(tracked, parts)
            for (shift, link), (tail, joined) in zip(choices, after):
                pair = [*pairing, *link]
                for s, t in closes:
                    u, v = pair[s], pair[t]
                    if u == t:
                        shift += 1
                    else:
                        pair[u] = v
                        pair[v] = u
                out = nxt.setdefault(
                    (tuple(map(renumber.__getitem__, map(pair.__getitem__, keep))), tail), {})
                shift += joined
                for key, count in histogram.items():
                    out[key + shift] = out.get(key + shift, 0) + count
        if sum(map(len, nxt.values())) > CENSUS_ENTRIES:
            raise SizeLimit(f"the census of {m} elements holds more than "
                            f"{CENSUS_ENTRIES} histogram entries")
        states = nxt
        frontier = list(map(slots.__getitem__, keep))
    (histogram,) = states.values()
    digits = list(zip(place, radices[:top]))
    bits = [(p // place[top], r) for p, r in zip(place[top:], radices[top:])]
    out = []
    for key, count in histogram.items():
        cycles, *joins = (key // p % r for p, r in digits)
        index = key // place[top]
        out.append((index, sum(index // p % r for p, r in bits),
                    kernel.closed + cycles, *joins, count))
    return out


def _relabel(tracked: tuple, parts: list) -> tuple:
    """The classes of the open labels after a census step from ``tracked``,
    with the element's bit clear and set, each with its joins' key units."""
    clear, set_ = [], []
    joined = 0
    for classes, (fresh, iu, iv, stay, unit) in zip(tracked, parts):
        row = joins = [*classes, *fresh]
        a, b = row[iu], row[iv]
        if a != b:
            joined += unit
            joins = [a if c == b else c for c in row]
        for out, new in (clear, row), (set_, joins):
            seen: dict = {}
            out.append(tuple([seen.setdefault(new[i], len(seen)) for i in stay]))
    return (tuple(clear), 0), (tuple(set_), joined)


def tally(kernel: CycleKernel, weights: Sequence[tuple],
          ends: Sequence[Sequence[tuple]] = ()) -> tuple[list, Iterable[tuple]]:
    """The ``poly.class_sum`` weight classes and the records of ``kernel``'s
    states, with ``ends`` as in ``sweep``.  ``weights[j]`` is
    element j's (x, y) pair, compared by equality only: ``census`` makes one
    class (x, y, n) per distinct pair carried by n elements when
    ``_census_pays``, and ``sweep`` one class (x, y, 1) per element
    otherwise.
    """
    pairs = _census_pays(weights)
    if pairs is None:
        return [(x, y, 1) for x, y in weights], sweep(kernel, ends)
    index = dict(zip(pairs, range(len(pairs))))
    return ([(x, y, n) for (x, y), n in pairs.items()],
            census(kernel, [index[w] for w in weights], ends))


def _census_pays(weights: Sequence[tuple]) -> Counter | None:
    """The weight pairs counted, n_c of them equal to pair c, when the
    census beats visiting the 2^m states of m elements with these pairs;
    None when it does not.

    Full calls of the three sums with each engine forced (12 seeded
    instances per family and m, median of 15 alternating rounds, on
    brackets, Tait graphs, one- and two-class weighted ``generate("rpg")``
    maps, and B_R of unit and two-class weighted ribbon graphs) took
    census/sweep 1.34-1.58x at m = 5, 1.12-1.24x at m = 6, 0.83-1.02x at
    m = 7, 0.52-0.68x at m = 8 and 0.38-0.47x at m = 9: the census costs
    more per element, and its histograms grow with prod(n_c + 1).
    Per-element symbolic weights make that 2^m, so they are swept.  Below
    7 elements no pair is hashed.
    """
    m = len(weights)
    pairs = Counter(weights) if m >= 7 else None
    return pairs if pairs and 4 * prod(n + 1 for n in pairs.values()) <= 1 << m else None
