"""The compiled state kernel against the per-state dict oracles.

Every state sum now runs on ``util.CycleKernel``: fixed links (0-edges,
virtual crossings, edges outside the enumerated set) are collapsed once and
each state traces only 4m live slots.  These tests compare it with the
earlier dict-keyed bodies kept in ``helpers`` and pin the slot count.
``util.census`` counts the masks by (class index, set bits, cycles,
joins) in one frontier pass; it is compared with ``cycles`` on every mask,
and with a count over ``util.sweep``'s records in the partitions of every
caller.  Random kernels, whose elements take any of the nine ordered
pairs of xors from {1, 2, 3}, check both engines against a walk of the
uncollapsed matchings that reads only the kernel's inputs, the sweep also
past its block, where per-call tables give the records: on random kernels,
on kernels whose boundary states are all distinct or all shared, and with
tables cleared at a bound of 2.
``ribbon.from_slots`` reads a kernel's slots back into a ribbon graph.
"""

import random
from collections import Counter
from math import prod

import pytest

from rgpoly import util
from rgpoly.convert import link_to_tait, ribbon_to_plane
from rgpoly.errors import SizeLimit
from rgpoly.links import (
    VirtualLinkDiagram,
    bracket_kernel,
    kauffman_bracket,
    split,
)
from rgpoly.planemap import (
    MapEdge,
    PlaneMap,
    relative_joins,
    relative_kernel,
    relative_tutte,
)
from rgpoly.ribbon import (
    RibbonGraph,
    bollobas_riordan,
    boundary_components,
    from_slots,
    side_kernel,
    twist_links,
)
from rgpoly.verify import generate

from helpers import (
    bollobas_riordan_by_subsets,
    boundary_components_by_subset,
    flip_equivalent,
    kauffman_bracket_by_dicts,
    relative_merges,
    relative_tutte_by_side_links,
    split_by_dicts,
)

SEEDS = range(1, 7)


def _ribbons():
    for seed in SEEDS:
        for size in range(9):
            R = generate("ribbon", seed, size)
            yield R
            yield RibbonGraph(R.vertices + [(), ()], R.edges)


def test_ribbon_family_has_loops_twists_and_isolated_vertices():
    loops = twists = isolated = 0
    for R in _ribbons():
        loops += sum(R.vertex_of(e.ends[0]) == R.vertex_of(e.ends[1]) for e in R.edges)
        twists += sum(e.sign == -1 for e in R.edges)
        isolated += sum(not v for v in R.vertices)
    assert loops and twists and isolated


def test_boundary_components_match_subset_oracle():
    for R in _ribbons():
        for mask in range(1 << R.num_edges):
            F = [i for i in range(R.num_edges) if mask >> i & 1]
            assert boundary_components(R, F) == boundary_components_by_subset(R, F), (R, F)


def test_bollobas_riordan_matches_subset_oracle():
    for R in _ribbons():
        assert bollobas_riordan(R) == bollobas_riordan_by_subsets(R), R


def _relative_plane_graphs():
    for seed in SEEDS:
        for size in range(9):
            yield generate("rpg", seed, size)
        for size in range(6):
            yield ribbon_to_plane(generate("ribbon", seed, size))[0]
        for size in range(7):
            yield link_to_tait(generate("link", seed, size))


def test_relative_tutte_matches_side_link_oracle():
    for G in _relative_plane_graphs():
        assert relative_tutte(G) == relative_tutte_by_side_links(G), G


def test_one_join_pass_counts_components_of_f_and_f_union_h():
    # the Merges oracle and the sweep over relative_joins' two partitions
    for G in _relative_plane_graphs():
        M, H, regular = G.map, sorted(G.zero), G.regular_indices()
        joins, kH = relative_merges(G)
        ends, kH_sweep = relative_joins(G)
        assert kH_sweep == kH, G
        swept = list(util.sweep(relative_kernel(G), ends))
        assert [state[0] for state in swept] == list(range(1 << len(regular))), G
        for mask, _, _, j_sweep, jh_sweep, _ in swept:
            F = [ei for i, ei in enumerate(regular) if mask >> i & 1]
            j, jh = joins.count_both(mask)
            assert j == joins.count(mask), (G, F)
            assert (j_sweep, jh_sweep) == (j, jh), (G, F)
            assert M.num_vertices - j == M.components(F), (G, F)
            assert kH - jh == M.components(F + H), (G, F)


def test_bracket_and_split_match_dict_oracle():
    for seed in SEEDS:
        for size in range(7):
            L = generate("link", seed, size)
            assert kauffman_bracket(L) == kauffman_bracket_by_dicts(L), (seed, size)
            for mask in range(1 << len(L.classical)):
                state = {ci: "AB"[mask >> i & 1] for i, ci in enumerate(L.classical)}
                assert split(L, state) == split_by_dicts(L, state), (seed, size, state)


def test_strand_through_virtual_crossings_only_is_one_circle():
    # a figure-eight curve whose one crossing is virtual: nothing is live,
    # the whole strand collapses into one closed cycle
    M = PlaneMap([("a", "b", "c", "d")],
                 [MapEdge(("a", "b"), "p"), MapEdge(("c", "d"), "q")])
    L = VirtualLinkDiagram(M, {0: "virtual"}, {}, free_loops=1)
    assert len(bracket_kernel(L).arc) == 0
    assert split(L, {}) == split_by_dicts(L, {}) == 2
    assert kauffman_bracket(L) == kauffman_bracket_by_dicts(L)


def test_live_slots_are_four_per_enumerated_element():
    # one instance of each large benchmark family: the drawn diagram is far
    # bigger than the enumerated set, but a state traces 4m slots only
    G, _ = ribbon_to_plane(generate("ribbon", 45, 10))
    kernel = relative_kernel(G)
    assert len(kernel.arc) == 4 * len(G.regular_indices()) == 40
    assert G.map.num_edges > 6 * len(G.regular_indices())

    L = generate("link", 52, 10)    # realizes the Gauss code gauss_code(52, 10)
    assert len(bracket_kernel(L).arc) == 4 * len(L.classical) == 40
    assert L.map.num_vertices - len(L.classical) > 50


def _counted(records):
    out = Counter()
    for *key, count in records:
        out[tuple(key)] += count
    return out


def _census_by_masks(kernel):
    # one class: the index is the set bits
    m = len(kernel.arc) // 4
    return Counter((mask.bit_count(), mask.bit_count(), kernel.cycles(mask))
                   for mask in range(1 << m))


def test_census_counts_every_mask_of_bracket_kernels():
    for seed in range(40):
        for size in range(13):
            kernel = bracket_kernel(generate("link", seed, size))
            assert _counted(util.census(kernel)) == _census_by_masks(kernel), (seed, size)


def test_census_counts_every_mask_of_bollobas_riordan_kernels():
    # all edges live, as bollobas_riordan compiles them, and every other
    # edge live with the rest fixed; bare vertices add closed cycles
    for seed in range(20):
        for size in range(11):
            R = generate("ribbon", seed, size)
            for G in (R, RibbonGraph(R.vertices + [()], R.edges)):
                for state in (range(size), range(0, size, 2)):
                    kernel = side_kernel(G, twist_links(G), state)
                    assert _counted(util.census(kernel)) == _census_by_masks(kernel), (seed, size)


def _census_of(records, classes):
    # the census of sweep records: class c's set bits at place
    # prod(n_d + 1 for the classes d < c)
    counts = [classes.count(c) for c in range(max(classes, default=0) + 1)]
    place = [prod(n + 1 for n in counts[:c]) for c in range(len(counts))]
    out = Counter()
    for mask, _, cycles, *joins, count in records:
        index = sum(place[c] for j, c in enumerate(classes) if mask >> j & 1)
        out[(index, mask.bit_count(), cycles, *joins)] += count
    return out


def _census_cases():
    # (key, kernel, ends) on every caller's kernels with at most 12
    # elements: bracket kernels, B_R side kernels with the vertex partition
    # (with and without bare vertices, all edges or every other edge live),
    # and relative kernels with both relative_joins partitions
    for seed in range(12):
        for size in range(13):
            yield (seed, size, "link"), bracket_kernel(generate("link", seed, size)), ()
        for size in range(11):
            R = generate("ribbon", seed, size)
            for G in (R, RibbonGraph(R.vertices + [(), ()], R.edges)):
                for state in (range(size), range(0, size, 2)):
                    ends = [(G.vertex_of(h1), G.vertex_of(h2))
                            for h1, h2 in (G.edges[e].ends for e in state)]
                    yield ((seed, size, "ribbon", G.num_vertices, len(state)),
                           side_kernel(G, twist_links(G), state), [ends])
        for size in range(13):
            graphs = [("tait", link_to_tait(generate("link", seed, size))),
                      ("rpg", generate("rpg", seed, size))]
            if size <= 6:
                graphs.append(("plane", ribbon_to_plane(generate("ribbon", seed, size))[0]))
            for name, G in graphs:
                if len(G.regular_indices()) <= 12:
                    ends, _ = relative_joins(G)
                    yield (seed, size, name), relative_kernel(G), ends


def test_census_matches_a_counter_over_sweep():
    for key, kernel, ends in _census_cases():
        m = len(kernel.arc) // 4
        for k in range(1, 4):
            classes = [(key[0] + j * j) % k for j in range(m)]
            expected = _census_of(util.sweep(kernel, ends), classes)
            assert _counted(util.census(kernel, classes, ends)) == expected, (key, k)


def test_sweep_and_census_read_labels_by_equality_only():
    # each partition's labels renamed injectively, to strings (which the two
    # partitions share) or to sparse ints, or each partition its own way
    renames = [lambda u: f"v{u}", lambda u: 7919 * u - 10 ** 12]
    for key, kernel, ends in _census_cases():
        if key[0] >= 4 or not ends:
            continue
        m = len(kernel.arc) // 4
        classes = [j % 2 for j in range(m)]
        swept = list(util.sweep(kernel, ends))
        counted = util.census(kernel, classes, ends)
        for per_part in [[f] * len(ends) for f in renames] + [renames[:len(ends)]]:
            renamed = [[(f(u), f(v)) for u, v in part] for f, part in zip(per_part, ends)]
            assert list(util.sweep(kernel, renamed)) == swept, key
            assert util.census(kernel, classes, renamed) == counted, key


def _random_kernel(rng, m):
    # 4m live slots, then 2f fixed ones; any xor pair from {1, 2, 3}
    n = 4 * m + 2 * rng.randrange(5)
    arc, fixed = [0] * n, [s ^ 1 for s in range(n)]
    for matching, nodes in (arc, list(range(n))), (fixed, list(range(4 * m, n))):
        rng.shuffle(nodes)
        for u, v in zip(nodes[::2], nodes[1::2]):
            matching[u], matching[v] = v, u
    choices = [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(m)]
    extra = rng.randrange(3)
    labels = (0, 1, 2, "a", "b")
    ends = [[(rng.choice(labels), rng.choice(labels)) for _ in range(m)]
            for _ in range(rng.randrange(4))]
    return (arc, fixed, choices, extra), ends


def _records_by_walking(arc, fixed, choices, extra, ends):
    # the sweep's records off the uncollapsed matchings: live slot s is
    # linked to s ^ choices[s >> 2][its bit], a fixed one by ``fixed``
    m = len(choices)
    for mask in range(1 << m):
        link = [s ^ choices[s >> 2][mask >> (s >> 2) & 1] for s in range(4 * m)]
        link += fixed[4 * m:]
        seen, cycles = set(), extra
        for start in range(len(arc)):
            cycles += start not in seen
            node = start
            while node not in seen:
                seen.add(node)
                node = arc[node]
                seen.add(node)
                node = link[node]
        joins = []
        for part in ends:
            parent: dict = {}

            def find(u):
                while parent.get(u, u) != u:
                    u = parent[u]
                return u

            joined = 0
            for j, (u, v) in enumerate(part):
                u, v = find(u), find(v)
                if mask >> j & 1 and u != v:
                    parent[u] = v
                    joined += 1
            joins.append(joined)
        yield (mask, mask.bit_count(), cycles, *joins, 1)


def test_random_kernels_match_a_walk_of_their_xor_choices():
    # the first seeds go past the sweep's block, where its records come
    # from per-call tables, with 0-3 partitions
    seen, partitions = set(), set()
    for seed in range(40):
        rng = random.Random(seed)
        for m in range(14 if seed < 6 else 9):
            args, ends = _random_kernel(rng, m)
            seen.update(args[2])
            partitions.add((m > util._BLOCK + 1, len(ends)))
            kernel = util.CycleKernel(*args)
            expected = list(_records_by_walking(*args, ends))
            assert list(util.sweep(kernel, ends)) == expected, (seed, m)
            for k in range(1, 4):
                classes = [rng.randrange(k) for _ in range(m)]
                assert _counted(util.census(kernel, classes, ends)) == \
                    _census_of(expected, classes), (seed, m, k)
    assert seen == {(x, y) for x in (1, 2, 3) for y in (1, 2, 3)}
    assert partitions == {(past, p) for past in (False, True) for p in range(4)}


def _boundary_kernel(shared):
    # _BLOCK + 3 elements on 4 slots each, no fixed ones.  The top three
    # elements' slots have arc partners in the block, so their xor choices
    # (1 or 2) leave eight different arc matchings on the block's slots, or
    # they are arcs among themselves, and the block's matching never changes.
    # Likewise the top elements join labels that the block's ends carry, or
    # labels of their own.
    b = util._BLOCK
    m, n = b + 3, 4 * b
    top = list(range(n, 4 * m))
    arc = [0] * (4 * m)
    if shared:
        pairs = list(zip(top[:6], top[6:])) + list(zip(range(0, n, 2), range(1, n, 2)))
    else:
        pairs = list(zip(top, range(12))) + list(zip(range(12, n, 2), range(13, n, 2)))
    for s, t in pairs:
        arc[s], arc[t] = t, s
    choices = [(1, 2)] * m
    block_ends = [(j, (j + 1) % 6) for j in range(b)]
    top_ends = [("a", "b"), ("c", "d"), ("e", "f")] if shared else [(0, 1), (2, 3), (4, 5)]
    return (arc, list(range(4 * m)), choices, 0), [block_ends + top_ends]


def _columns_built(monkeypatch):
    # the cycle and join columns the tables store, by kind, and the most
    # columns a table held
    built = Counter()
    store = util._store

    def counted(table, key, column):
        built["cycles" if len(key) == 4 * util._BLOCK else "joins"] += 1
        store(table, key, column)
        built["held"] = max(built["held"], len(table))

    monkeypatch.setattr(util, "_store", counted)
    return built


@pytest.mark.parametrize("shared, built", [(False, 8), (True, 1)])
def test_sweep_tables_on_all_distinct_and_all_shared_boundary_states(monkeypatch, shared, built):
    # eight states above the block: eight cycle and join columns, or one each
    columns = _columns_built(monkeypatch)
    args, ends = _boundary_kernel(shared)
    records = list(util.sweep(util.CycleKernel(*args), ends))
    assert records == list(_records_by_walking(*args, ends))
    assert columns == {"cycles": built, "joins": built, "held": built}


def test_sweep_tables_cleared_when_full_keep_the_records(monkeypatch):
    monkeypatch.setattr(util, "_TABLE_ENTRIES", 2)
    columns = _columns_built(monkeypatch)
    args, ends = _boundary_kernel(False)
    assert list(util.sweep(util.CycleKernel(*args), ends)) == \
        list(_records_by_walking(*args, ends))
    for seed in range(6):
        rng = random.Random(seed)
        for m in range(util._BLOCK + 2, 13):
            args, ends = _random_kernel(rng, m)
            assert list(util.sweep(util.CycleKernel(*args), ends)) == \
                list(_records_by_walking(*args, ends)), (seed, m)
    # the first kernel alone stores eight columns per table
    assert columns["cycles"] > 8 and columns["joins"] > 8 and columns["held"] == 2


def test_census_past_its_entry_bound_raises_size_limit(monkeypatch):
    monkeypatch.setattr(util, "CENSUS_ENTRIES", 8)
    with pytest.raises(SizeLimit, match="more than 8 histogram entries"):
        kauffman_bracket(generate("link", 3, 12))


def test_from_slots_rebuilds_a_ribbon_graph_off_its_kernel():
    # the (close, arc) cycles with every edge out are the discs, and the
    # links with every edge in are the ribbons, up to flips of the discs
    for seed in range(40):
        for size in range(9):
            R = generate("ribbon", seed, size)
            R = RibbonGraph(R.vertices + [()], R.edges)
            kernel = side_kernel(R, twist_links(R), range(size))
            S = from_slots(kernel.arc, kernel.links(0), kernel.links((1 << size) - 1),
                           [e.ends for e in R.edges],
                           [(e.label, e.x, e.y) for e in R.edges], kernel.closed)
            assert flip_equivalent(R, S), (seed, size)
