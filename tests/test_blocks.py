"""The sweep's block stream and the sums that read it as packed columns.

``util.sweep`` lists its states block by block: a base state and bytes
columns of popcounts, cycles and joins per partition over the block's
sub-masks.  Its records are the flattening of that stream, and
``helpers.sweep_by_records`` keeps the earlier body, which turned every
block back into record tuples; a walk of at most 7 elements gives its
records, each a block of one state.  ``poly.class_sum`` reads the blocks
through the affine exponent forms of B_R, the relative Tutte polynomial
and the bracket (``poly.Affine``), one packed column per block.  These
tests flatten the stream against the earlier records, and compare both
sums, with and without ``subs=``, with the per-subset oracles across the
walk's sizes: a whole walk's records (m <= 7), blocks longer than the low
weight table (m = 8-11) and blocks inside it (m >= 12), under unit-coefficient
monomial weights and under multi-term, zero, negative-coefficient,
quarter-exponent and u^(10^12) weights.  They also pin which sums count a
block's keys in at once: only indexed sweeps under coefficient-1 monomial
weights.
"""

from collections import Counter
from fractions import Fraction
from operator import add

from rgpoly import poly, util
from rgpoly.convert import ribbon_to_plane
from rgpoly.planemap import (RelPlaneGraph, _relative_sum, relative_kernel,
                             relative_tutte)
from rgpoly.links import JONES_SUBS
from rgpoly.poly import ONE, ZERO, Affine, class_sum, monomial, var
from rgpoly.ribbon import DEFAULT_EDGE_CAP, RibbonGraph, bollobas_riordan, make_edge, side_kernel, twist_links
from rgpoly.verify import INV_SQRT_XY, SQRT_XY, SWAPPED_SQRT_XY, generate

from helpers import (bollobas_riordan_by_subsets, relative_merges,
                     relative_tutte_by_side_links, state_sum_by_products, sweep_by_records)

X, Y, t = var("X"), var("Y"), var("t")
SWAP = {"X": Y, "Y": X}
SIZES = (6, 7, 8, 11, 12, 13, 14)


def _flattened(stream):
    """The records of a sweep's blocks, read off their columns."""
    widths = set()
    for record, columns in stream.blocks():
        mask, *values, count = record
        assert count == 1
        if columns is None:
            yield record
            continue
        n = len(columns[0])
        assert n & (n - 1) == 0 and mask % n == 0
        assert len(values) == len(columns) and all(len(c) == n for c in columns)
        widths.add(n.bit_length() - 1)
        for s, column in enumerate(zip(*columns)):
            yield (mask + s, *map(add, values, column), 1)
    assert widths == ({stream.width} if stream.width else set())


def test_block_stream_flattens_to_the_earlier_records():
    # a whole walk's records up to 7 elements, table blocks of 64 states
    # past it; 0-2 partitions, the second coarser than the first, so its
    # joins differ
    for seed in range(3):
        for m in range(15):
            R = generate("ribbon", seed, m)
            kernel = side_kernel(R, twist_links(R), range(m))
            pairs = R.vertex_pairs()
            coarse = [(u % 2, v % 3) for u, v in pairs]
            for ends in ([], [pairs], [pairs, coarse], [coarse, pairs]):
                want = list(sweep_by_records(kernel, ends))
                assert list(_flattened(util.sweep(kernel, ends))) == want, (seed, m, len(ends))
                assert list(util.sweep(kernel, ends)) == want, (seed, m, len(ends))


def _unit_monomials(i):
    # coefficient 1 throughout, distinct per element: the packed fast path
    u = {"u_blk": Fraction(i, 4)}
    return monomial(1, u), monomial(1, {"u_blk": 10 ** 12}) if i % 3 == 0 else ONE


def _mixed(i):
    # multi-term, zero, negative-coefficient, quarter and 10^12 exponents,
    # each pair distinct, so the relative sums sweep rather than count
    q = monomial(1, {"u_blk": Fraction(i, 4)})
    return [((1 + t) * q, t - 1), (ZERO, q), (-3 * var("v_blk"), 2 * q),
            (monomial(1, {"u_blk": 10 ** 12}) * q, var("v_blk") ** -1), (q, ONE)][i % 5]


def _weighted(R, weight):
    return RibbonGraph(R.vertices, [make_edge(*e.ends, sign=e.sign, label=e.label,
                                              x=weight(i)[0], y=weight(i)[1])
                                    for i, e in enumerate(R.edges)])


def _relative_by_products(G):
    """The relative Tutte sum state by state: per-mask kernel cycles and
    joins, each state's weight multiplied out (``state_sum_by_products``)."""
    regular = G.regular_indices()
    M = G.map
    nv, kG = M.num_vertices, M.components()
    kernel = relative_kernel(G)
    joins, kH = relative_merges(G)

    def term(mask):
        j, jh = joins.count_both(mask)
        kF, kFH = nv - j, kH - jh
        nF = mask.bit_count() - j
        return kFH - kG, nF, kernel.cycles(mask) - nF - kFH, kF - kFH

    return state_sum_by_products([G.weights[ei] for ei in regular], ("X", "Y", "d", "w"),
                                 0, term, DEFAULT_EDGE_CAP, "")


def _same(got, want, case):
    assert got.canonical() == want.canonical() and got == want, case


def test_sums_of_blocks_match_the_per_subset_oracles():
    for m in SIZES:
        base = generate("ribbon", m % 3, m)
        for name, weight in (("unit", _unit_monomials), ("mixed", _mixed)):
            case = (m, name)
            R = _weighted(base, weight)
            B = bollobas_riordan_by_subsets(R)
            _same(bollobas_riordan(R), B, case)
            for mapping in (INV_SQRT_XY, SWAP):
                _same(bollobas_riordan(R, subs=mapping), B.subs(mapping), (*case, mapping))
            G = ribbon_to_plane(R)[0]
            if len(G.regular_indices()) >= 7:
                assert util._census_pays(list(G.weights.values())) is None, case
            T = _relative_by_products(G) if m > 8 else relative_tutte_by_side_links(G)
            _same(relative_tutte(G), T, case)
            for mapping in (SQRT_XY, SWAPPED_SQRT_XY, SWAP):
                _same(relative_tutte(G, subs=mapping), T.subs(mapping), (*case, mapping))


def test_relative_sums_of_blocks_on_graphs_with_zero_edges():
    # routed relative plane graphs keep 0-edges of their own, so k(H) and
    # the second partition's joins differ from the vertices'
    for seed, size, m in ((7, 10, 7), (4, 14, 9), (6, 17, 12)):
        G = generate("rpg", seed, size)
        regular = G.regular_indices()
        assert len(regular) == m and G.zero
        for weight in (_unit_monomials, _mixed):
            W = RelPlaneGraph(G.map, G.zero, {ei: weight(i) for i, ei in enumerate(regular)})
            T = _relative_by_products(W)
            _same(relative_tutte(W), T, m)
            _same(relative_tutte(W, subs=SQRT_XY), T.subs(SQRT_XY), m)


def test_prefactor_is_stated_in_the_variables_of_the_result():
    # under the swapped map, X^a Y^b multiplies the substituted sum as it
    # stands: it takes no image, and is not multiplied before the swap
    factor = monomial(1, {"X": Fraction(3, 2), "Y": -2})
    for m in (0, 3, 8, 12):
        G = generate("rpg", 5, m)
        for mapping in (None, SQRT_XY, SWAPPED_SQRT_XY, {"X": X + 1}, {"d": -t}):
            plain = relative_tutte(G) if mapping is None else relative_tutte(G).subs(mapping)
            _same(_relative_sum(G, DEFAULT_EDGE_CAP, mapping, factor), factor * plain, (m, mapping))


def _bracket_like(kernel, ends, indexed):
    """Classes, names, bound and form of a sum over a sweep's states with
    distinct coefficient-1 weights per element, A^ones B^(m - ones)
    d^(cycles - 1 + joins)."""
    m, k = len(kernel.choices), len(ends)
    classes = [(var(f"x_ix{j}"), var(f"y_ix{j}"), 1) for j in range(m)]
    rows = ((0, 1, 0, *[0] * k), (m, -1, 0, *[0] * k), (-1, 0, 1, *[1] * k))
    bound = kernel.closed + (2 + k) * m + 1
    return classes, ("A", "B", "d"), bound, lambda records: Affine(records, rows, indexed)


def test_a_sweep_summed_without_its_index_matches_its_records():
    # with indexed false every state takes the weight of index 0, so the
    # column blocks must not read consecutive weight rows
    unit = {"A": monomial(1, {"t": Fraction(-1, 4)}), "B": monomial(1, {"t": Fraction(1, 4)})}
    for m in (10, 12):
        R = generate("ribbon", 1, m)
        kernel = side_kernel(R, twist_links(R), range(m))
        pairs = R.vertex_pairs()
        for ends in ([], [pairs], [pairs, [(u % 2, v % 3) for u, v in pairs]]):
            assert util.sweep(kernel, ends).width
            for indexed in (False, True):
                classes, names, bound, form = _bracket_like(kernel, ends, indexed)
                for mapping in (None, unit, JONES_SUBS):
                    got = class_sum(classes, names, bound, form(util.sweep(kernel, ends)), mapping)
                    want = class_sum(classes, names, bound, form(list(util.sweep(kernel, ends))),
                                     mapping)
                    _same(got, want, (m, len(ends), indexed, mapping))


def test_only_indexed_sweeps_under_plain_weights_count_their_blocks_in(monkeypatch):
    calls = []

    class Counting(Counter):
        def update(self, iterable=None, /, **kwds):
            if iterable is not None:        # Counter() itself calls update(None)
                calls.append(iterable)
            super().update(iterable, **kwds)

    monkeypatch.setattr(poly, "Counter", Counting)

    def updates(total):
        calls.clear()
        total()
        return len(calls)

    m = 12
    R = generate("ribbon", 2, m)
    G = RelPlaneGraph(generate("rpg", 2, m).map)
    assert len(G.regular_indices()) == m
    blocks = (1 << m) >> util._BLOCK
    assert updates(lambda: bollobas_riordan(R)) == blocks
    assert updates(lambda: relative_tutte(G)) == blocks
    # one edge's weight multi-term, or a monomial with coefficient 2
    for x in (1 + t, 2 * t):
        edges = [make_edge(*e.ends, sign=e.sign, label=e.label, x=x) if i == 5 else e
                 for i, e in enumerate(R.edges)]
        assert updates(lambda: bollobas_riordan(RibbonGraph(R.vertices, edges))) == 0, x
        W = RelPlaneGraph(G.map, (), {**G.weights, 5: (x, ONE)})
        assert updates(lambda: relative_tutte(W)) == 0, x
    kernel = side_kernel(R, twist_links(R), range(m))
    classes, names, bound, form = _bracket_like(kernel, [], False)
    assert updates(lambda: class_sum(classes, names, bound, form(util.sweep(kernel)))) == 0
    # equal weights: the census's records
    U = RelPlaneGraph(G.map, (), dict.fromkeys(G.regular_indices(), (ONE, ONE)))
    assert util._census_pays(list(U.weights.values()))
    assert updates(lambda: relative_tutte(U)) == 0
