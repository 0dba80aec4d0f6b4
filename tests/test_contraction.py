"""Contraction, strands and vertex classes against their step-by-step oracles.

``planemap.contract_where`` splices every contracted edge into plain
rotation lists and builds one map; ``strand_components`` and
``RibbonGraph.roots`` run on ints.  These tests compare them with the
earlier bodies kept in ``helpers`` (one validated map per contraction, the
dict strand walk, a dict union-find) and pin the number of maps built.
``planemap.remainders`` contracts every subset on one mutable map; its
k, v and delta are compared with ``contract_all``'s map of each subset.
"""

from collections import Counter
from dataclasses import replace

import pytest

from rgpoly.convert import link_to_tait, ribbon_to_plane
from rgpoly.planemap import (PlaneMap, RelPlaneGraph, contract, contract_all, delete,
                             medial_circles, remainders)
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


@pytest.fixture
def built(monkeypatch):
    """A one-item list that counts the maps built from here on."""
    count = [0]
    init = RibbonGraph.__init__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(RibbonGraph, "__init__", counting_init)
    return count


def test_one_map_per_contraction(built):
    # one map per contracted edge would be 92 maps in ribbon_to_plane here
    # and 11 in contract_all
    R = generate("ribbon", 45, 10)
    built[0] = 0
    G, _ = ribbon_to_plane(R)
    assert built[0] <= 3
    built[0] = 0
    contract_all(G, G.regular_indices())
    assert built[0] <= 2


def test_contract_all_builds_one_map(built):
    # contract_where drops the edges outside F u H itself, so no submap of
    # F u H is built and validated first
    for G in list(_relative_plane_graphs()):
        regular = G.regular_indices()
        for F in ([], regular, regular[::2]):
            built[0] = 0
            contract_all(G, F)
            assert built[0] == 1, (G, F)


def _remainder_graphs():
    yield from _relative_plane_graphs()
    for seed in range(40):
        for size in range(10):
            yield generate("rpg", seed, size)
    for seed in SEEDS:
        for G in (generate("rpg", seed, 6), ribbon_to_plane(generate("ribbon", seed, 4))[0]):
            M = G.map
            yield RelPlaneGraph(PlaneMap(M.vertices[:1] + [()] + M.vertices[1:] + [()],
                                         M.edges), G.zero, G.weights)


def test_remainders_match_contract_all():
    seen = Counter()
    for G in _remainder_graphs():
        regular = G.regular_indices()
        M = G.map
        # regular edges with an end alone at its vertex
        lone = {ei for ei in regular
                if any(len(M.vertices[M.vertex_of(h)]) == 1 for h in M.edges[ei].ends)}
        walked = list(remainders(G))
        assert len(walked) == 1 << len(regular), G
        for mask, got in enumerate(walked):
            F = [ei for i, ei in enumerate(regular) if mask >> i & 1]
            hf = contract_all(G, F)
            want = (hf.map.components(), hf.map.num_vertices, medial_circles(hf.map))
            assert got == want, (G, F)
            seen["loops"] += hf.deleted_loops > 0
            seen["lone ends"] += bool(lone.intersection(F))
            seen["components"] += want[0] > 1
            seen["empty vertices"] += () in hf.map.vertices
    assert min(seen.values()) > 0 and len(seen) == 4, seen


def test_subset_identities_build_no_map_per_subset(built):
    # one contract_all per subset built 1024 maps here
    R = generate("ribbon", 45, 10)
    G, cert = ribbon_to_plane(R)
    assert len(G.regular_indices()) == 10
    built[0] = 0
    assert check_subset_identities(R, G, cert).passed
    assert built[0] <= 2
