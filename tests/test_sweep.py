"""``util.sweep`` against per-mask cycles and the ``Merges`` oracle.

The sweep walks the include/exclude tree of a kernel's elements depth
first and gives every state's record (mask, set bits, cycles, joins...,
1), the joins counted on partitions given as label pairs alone: the
vertex pairs of the edges, or ``relative_joins``' vertex pairs and their
roots in H, unnumbered.  ``bollobas_riordan`` and
``verify.check_subset_identities`` read the records directly, and
``util.tally`` hands them to the other two state sums when the census
does not pay.  These tests compare it with ``CycleKernel.cycles`` and
``helpers.Merges`` on every mask, pin its records and its memory, check
that the two state sums refuse too many edges before compiling anything,
and compare ``poly._Fields``' grouped decode with the per-field one.
"""

import random
import tracemalloc
from fractions import Fraction

import pytest

from rgpoly import planemap, ribbon, util
from rgpoly.convert import ribbon_to_plane
from rgpoly.errors import SizeLimit
from rgpoly.planemap import relative_joins, relative_kernel, relative_tutte
from rgpoly.poly import ONE, _Fields, _span, monomial, var
from rgpoly.ribbon import RibbonGraph, bollobas_riordan, make_edge, side_kernel, twist_links
from rgpoly.verify import generate

from helpers import Merges, decode_by_fields, relative_merges


def _swept(kernel, ends=()):
    records = list(util.sweep(kernel, ends))
    # every mask once, ascending, with its set bits and a count of 1
    m = len(kernel.arc) // 4
    assert [(r[0], r[1], r[-1]) for r in records] == [
        (mask, mask.bit_count(), 1) for mask in range(1 << m)]
    return [(mask, cycles, *joins) for mask, _, cycles, *joins, _ in records]


def _vertex_ends(R):
    return [(R.vertex_of(h1), R.vertex_of(h2)) for h1, h2 in (e.ends for e in R.edges)]


def _compare_on_ribbon(R, state):
    kernel = side_kernel(R, twist_links(R), state)
    ends = [_vertex_ends(R)[e] for e in state]
    joins = Merges(ends)
    swept = _swept(kernel, [ends])
    # every mask exactly once, in ascending order
    assert [s[0] for s in swept] == list(range(1 << len(state)))
    for mask, cycles, j in swept:
        assert (cycles, j) == (kernel.cycles(mask), joins.count(mask)), (R, mask)


def test_sweep_matches_cycles_and_merges_on_ribbon_side_kernels():
    # n up to 12 crosses the 2^8 block boundary
    for seed in range(40):
        for size in range(13):
            _compare_on_ribbon(generate("ribbon", seed, size), range(size))


def test_sweep_on_kernels_with_bare_vertices_and_fixed_edges():
    for seed in range(20):
        for size in range(11):
            R = generate("ribbon", seed, size)
            R = RibbonGraph(R.vertices + [(), ()], R.edges)
            for state in (range(size), range(0, size, 2), range(size - 1, -1, -3)):
                _compare_on_ribbon(R, list(state))


def _relative_graphs():
    for seed in range(12):
        for size in range(10):
            yield generate("rpg", seed, size)
        for size in range(8):
            yield ribbon_to_plane(generate("ribbon", seed, size))[0]


def test_sweep_matches_merges_on_relative_kernels_with_h_classes():
    for G in _relative_graphs():
        kernel = relative_kernel(G)
        ends, kH = relative_joins(G)
        joins, kH_oracle = relative_merges(G)
        assert kH == kH_oracle
        swept = _swept(kernel, ends)
        assert [s[0] for s in swept] == list(range(1 << len(G.regular_indices())))
        for mask, cycles, j, jh in swept:
            assert (cycles, j, jh) == (kernel.cycles(mask), *joins.count_both(mask)), (G, mask)


def test_sweep_of_no_elements_is_one_state():
    R = RibbonGraph([(), ()], [])
    kernel = side_kernel(R, {}, ())
    assert list(util.sweep(kernel, [[]])) == [(0, 0, 2, 0, 1)]
    assert list(util.sweep(kernel)) == [(0, 0, 2, 1)]


def test_sweep_refuses_more_labels_than_a_byte_holds_at_the_call():
    # 128 elements on 256 labels sweep; a 129th element with a 257th label
    # raises before any state is walked
    m = 129
    kernel = util.CycleKernel([s ^ 1 for s in range(4 * m)], [], [(1, 2)] * m)
    ends = [(2 * j, 2 * j + 1) for j in range(m - 1)] + [(256, 0)]
    first = next(util.sweep(util.CycleKernel(kernel.arc[:-4], [], [(1, 2)] * (m - 1)),
                            [ends[:-1]]))
    assert first == (0, 0, 2 * (m - 1), 0, 1)
    with pytest.raises(SizeLimit,
                       match="^257 labels in one partition exceeds the sweep's limit 256$"):
        util.sweep(kernel, [ends])


def test_state_sums_check_their_caps_before_compiling(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("nothing may be compiled past the cap")

    R = generate("ribbon", 3, 5)
    G = generate("rpg", 3, 9)
    m = len(G.regular_indices())
    # per-edge symbolic weights enumerate; unit weights take the census
    unit = planemap.RelPlaneGraph(G.map, G.zero, {i: (ONE, ONE) for i in G.regular_indices()})
    for name in ("side_kernel", "sweep", "class_sum"):
        monkeypatch.setattr(ribbon, name, boom)
    for name in ("side_kernel", "tally", "class_sum"):
        monkeypatch.setattr(planemap, name, boom)
    with pytest.raises(SizeLimit, match="^5 edges exceeds the enumeration cap 4$"):
        bollobas_riordan(R, cap=4)
    for graph in (G, unit):
        with pytest.raises(SizeLimit, match=f"^{m} regular edges exceeds the enumeration cap 2$"):
            relative_tutte(graph, cap=2)


def test_bollobas_riordan_streams_its_states():
    # unit weights leave few output terms, so a list of the 2^16 states
    # (over 4 MB of tuples) would be most of the peak
    R = generate("ribbon", 5, 16)
    R = RibbonGraph(R.vertices, [make_edge(*e.ends, sign=e.sign, label=e.label, x=ONE, y=ONE)
                                 for e in R.edges])
    tracemalloc.start()
    try:
        bollobas_riordan(R)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_grouped_decode_matches_per_field_decode():
    # more than 8 fields, so several groups; negative, quarter and wide
    # exponents, and keys from every corner of each field's range
    rng = random.Random(15)
    big = 10 ** 30
    for trial in range(20):
        n = rng.randint(5, 12)
        classes = []
        for i in range(n):
            x = monomial(1, {f"x_g{i}": Fraction(rng.randint(-9, 9), 4),
                             "t": rng.choice([Fraction(1, 4), -big, big + i])})
            y = var(f"y_g{i}") if rng.random() < 0.5 else monomial(-2, {f"y_g{i}": -3})
            classes.append((x, y, rng.randint(1, 3)))
        fields = _Fields(_span(classes, ("X", "Y", "d", "w")[:rng.randint(0, 4)],
                               rng.randint(0, 7)))
        assert sum(len(group.fields) for _, _, group in fields.groups) > 8
        for _ in range(200):
            key = 0
            for low, _, group in fields.groups:
                for at, _, _, bias, _ in group.fields:
                    value = rng.choice([0, bias, 2 * bias, rng.randint(0, 2 * bias)])
                    key += value << (low + at)
            assert fields.decode(key) == decode_by_fields(fields, key), trial
