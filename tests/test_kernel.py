"""The compiled state kernel against the per-state dict oracles.

Every state sum now runs on ``util.CycleKernel``: fixed links (0-edges,
virtual crossings, edges outside the enumerated set) are collapsed once and
each state traces only 4m live slots.  These tests compare it with the
earlier dict-keyed bodies kept in ``helpers`` and pin the slot count.
"""

from rgpoly.convert import link_to_tait, ribbon_to_plane
from rgpoly.links import (
    VirtualLinkDiagram,
    bracket_kernel,
    kauffman_bracket,
    split,
)
from rgpoly.planemap import MapEdge, PlaneMap, relative_kernel, relative_tutte
from rgpoly.ribbon import RibbonGraph, bollobas_riordan, boundary_components
from rgpoly.verify import generate

from helpers import (
    bollobas_riordan_by_subsets,
    boundary_components_by_subset,
    kauffman_bracket_by_dicts,
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
    kernel = relative_kernel(G)[0]
    assert len(kernel.arc) == 4 * len(G.regular_indices()) == 40
    assert G.map.num_edges > 100

    L = generate("link", 52, 10)    # realizes the Gauss code gauss_code(52, 10)
    assert len(bracket_kernel(L).arc) == 4 * len(L.classical) == 40
    assert L.map.num_vertices - len(L.classical) > 50
