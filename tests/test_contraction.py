"""Contraction, strands and vertex classes against their step-by-step oracles.

``planemap.contract_where`` splices every contracted edge into plain
rotation lists and builds one map; ``strand_components`` and
``RibbonGraph.roots`` run on ints.  These tests compare them with the
earlier bodies kept in ``helpers`` (one validated map per contraction, the
dict strand walk, a dict union-find) and pin the number of maps built.
"""

from dataclasses import replace

from rgpoly.convert import link_to_tait, ribbon_to_plane
from rgpoly.planemap import contract, contract_all, delete
from rgpoly.ribbon import RibbonGraph
from rgpoly.verify import check_subset_identities, generate

from helpers import (
    contract_all_by_steps,
    contract_by_steps,
    delete_by_steps,
    strand_components_by_dicts,
    union_find_by_dicts,
)

SEEDS = range(1, 4)


def _relative_plane_graphs():
    for seed in SEEDS:
        for size in range(9):
            yield generate("rpg", seed, size)
        for size in range(6):
            yield ribbon_to_plane(generate("ribbon", seed, size))[0]
        for size in range(7):
            yield link_to_tait(generate("link", seed, size))


def _same_map(a, b):
    return a.vertices == b.vertices and a.edges == b.edges


def test_contract_all_matches_one_map_per_step():
    for G in _relative_plane_graphs():
        regular = G.regular_indices()
        for mask in range(1 << len(regular)):
            F = [ei for i, ei in enumerate(regular) if mask >> i & 1]
            hf = contract_all(G, F)
            m, loops = contract_all_by_steps(G, F)
            assert _same_map(hf.map, m) and hf.deleted_loops == loops, (G, F)


def test_contract_all_ignores_labels_shared_with_zero_edges():
    # a legal ribbon edge label may equal one the drawing gives a 0-edge
    # (q0_0, t3); F is contracted by index, so that 0-edge stays
    R = generate("ribbon", 0, 4)
    G, _ = ribbon_to_plane(R)
    zero_labels = sorted(G.map.edges[i].label for i in G.zero)
    assert "q0_0" in zero_labels and any(lb.startswith("t") for lb in zero_labels)
    for label in zero_labels:
        R2 = RibbonGraph(R.vertices, [replace(R.edges[0], label=label)] + R.edges[1:])
        G, cert = ribbon_to_plane(R2)
        (gi,) = [g for g, r in cert.g_to_r.items() if r == 0]
        hf = contract_all(G, [gi])
        assert (hf.map.num_vertices, hf.map.num_edges) == (
            G.map.num_vertices - 1, len(G.zero)), label
        m, loops = contract_all_by_steps(G, [gi])
        assert _same_map(hf.map, m) and hf.deleted_loops == loops == 0, label
        assert check_subset_identities(R2, G, cert).passed, label


def test_contract_and_delete_match_one_map_per_step():
    for G in _relative_plane_graphs():
        M = G.map
        for ei in range(M.num_edges):
            assert _same_map(contract(M, ei), contract_by_steps(M, ei)), (G, ei)
            assert _same_map(delete(M, ei), delete_by_steps(M, ei)), (G, ei)


def test_strand_components_match_dict_walk():
    for seed in SEEDS:
        for size in range(7):
            L = generate("link", seed, size)
            assert L.strand_components() == strand_components_by_dicts(L), (seed, size)


def test_components_and_classes_match_dict_union_find():
    for seed in range(1, 7):
        for size in range(9):
            R = generate("ribbon", seed, size)
            R = RibbonGraph(R.vertices + [(), ()], R.edges)
            subsets = [None] + [[i for i in range(R.num_edges) if mask >> i & 1]
                                for mask in range(1 << R.num_edges)]
            for F in subsets:
                uf = union_find_by_dicts(R, F)
                assert R.components(F) == uf.count, (R, F)
                root = R.roots(F)
                for u in range(R.num_vertices):
                    for v in range(R.num_vertices):
                        same = uf.find(u) == uf.find(v)
                        assert (root[u] == root[v]) == same, (R, F, u, v)


def test_one_map_per_contraction(monkeypatch):
    # one map per contracted edge would be 92 maps in ribbon_to_plane here
    # and 11 in contract_all
    R = generate("ribbon", 45, 10)
    built = [0]
    init = RibbonGraph.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(RibbonGraph, "__init__", counting_init)
    G, _ = ribbon_to_plane(R)
    assert built[0] <= 3
    built[0] = 0
    contract_all(G, G.regular_indices())
    assert built[0] <= 2


def test_contract_all_builds_one_map(monkeypatch):
    # contract_where drops the edges outside F u H itself, so no submap of
    # F u H is built and validated first
    graphs = list(_relative_plane_graphs())
    built = [0]
    init = RibbonGraph.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(RibbonGraph, "__init__", counting_init)
    for G in graphs:
        regular = G.regular_indices()
        for F in ([], regular, regular[::2]):
            built[0] = 0
            contract_all(G, F)
            assert built[0] == 1, (G, F)
