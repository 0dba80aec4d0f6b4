import random

import pytest

from rgpoly.errors import GenusError
from rgpoly.planemap import (
    MapEdge,
    PlaneMap,
    RelPlaneGraph,
    contract,
    contract_all,
    delete,
    dual,
    faces,
    medial_circles,
    psi,
    relative_tutte,
    submap,
)
from rgpoly.convert import link_to_tait, ribbon_to_plane
from rgpoly.poly import ONE, var
from rgpoly.ribbon import RibbonGraph, boundary_components, make_edge, side_cycles
from rgpoly.verify import generate, grow_plane_map

from helpers import relative_tutte_by_contraction, whitney_rank_polynomial


def triangle():
    vertices = [("a0", "c1"), ("b0", "a1"), ("c0", "b1")]
    edges = [MapEdge(("a0", "a1"), "a"),
             MapEdge(("b0", "b1"), "b"),
             MapEdge(("c0", "c1"), "c")]
    return PlaneMap(vertices, edges)


def test_faces_and_euler():
    M = triangle()
    assert len(faces(M)) == 2
    assert M.euler_deficit() == 0
    M.require_plane()


def test_isolated_vertex_is_a_face():
    M = PlaneMap([()], [])
    walks = faces(M)
    assert walks == [[("iso", 0)]]
    M.require_plane()


def test_dual_reads_no_marker_off_half_edge_names():
    # a half-edge may carry any hashable name, even the marker walk that
    # faces lists for an isolated vertex
    M = PlaneMap([("p", ("iso", 0))], [MapEdge(("p", ("iso", 0)), "e")])
    G = RelPlaneGraph(M)
    assert faces(M) == [["p"], [("iso", 0)]]
    D = dual(G)
    assert D.map.vertices == [("p",), (("iso", 0),)]
    assert relative_tutte(D) == relative_tutte_by_contraction(D)


def test_interleaved_loops_are_not_plane():
    M = PlaneMap([("a0", "b0", "a1", "b1")],
                 [MapEdge(("a0", "a1"), "a"), MapEdge(("b0", "b1"), "b")])
    assert M.euler_deficit() != 0
    with pytest.raises(GenusError):
        M.require_plane()


def test_delete_and_contract():
    M = triangle()
    D = delete(M, 0)
    assert D.num_vertices == 3 and D.num_edges == 2
    C = contract(M, 0)
    assert C.num_vertices == 2 and C.num_edges == 2
    C.require_plane()
    # contracting a loop deletes it
    L = PlaneMap([("a0", "a1")], [MapEdge(("a0", "a1"), "a")])
    assert contract(L, 0).num_edges == 0


def test_medial_circles_examples():
    assert medial_circles(PlaneMap([()], [])) == 1
    single_edge = PlaneMap([("a0",), ("a1",)], [MapEdge(("a0", "a1"), "a")])
    assert medial_circles(single_edge) == 1
    loop = PlaneMap([("a0", "a1")], [MapEdge(("a0", "a1"), "a")])
    assert medial_circles(loop) == 1
    # odd cycle: the two parallel strands swap at each of the 3 crossings
    assert medial_circles(triangle()) == 1
    square = PlaneMap(
        [("a0", "d1"), ("b0", "a1"), ("c0", "b1"), ("d0", "c1")],
        [MapEdge((f"{n}0", f"{n}1"), n) for n in "abcd"])
    assert medial_circles(square) == 2


def test_medial_matches_all_twisted_boundary():
    rng = random.Random(7)
    for trial in range(25):
        M = grow_plane_map(rng, rng.randint(0, 7))
        R = RibbonGraph(
            list(M.vertices),
            [make_edge(*e.ends, sign=-1, label=e.label) for e in M.edges])
        assert medial_circles(M) == boundary_components(R, R.all_edges())


def test_psi_examples():
    single_edge = PlaneMap([("a0",), ("a1",)], [MapEdge(("a0", "a1"), "a")])
    assert psi(single_edge) == var("w")
    loop = PlaneMap([("a0", "a1")], [MapEdge(("a0", "a1"), "a")])
    assert psi(loop) == ONE
    assert psi(PlaneMap([()], [])) == ONE


def test_relative_tutte_two_vertex_example():
    vertices = [("e0", "h0"), ("e1", "h1")]
    edges = [MapEdge(("e0", "e1"), "e"), MapEdge(("h0", "h1"), "h")]
    G = RelPlaneGraph(PlaneMap(vertices, edges), zero={1})
    T = relative_tutte(G)
    assert T == var("x_e") + var("y_e") * var("w")
    assert T.canonical() == "y_e*w + x_e"


def test_relative_tutte_triangle_matches_whitney():
    M = triangle()
    G = RelPlaneGraph(M, weights={i: (ONE, ONE) for i in range(3)})
    assert relative_tutte(G).canonical() == "X^2 + 3*X + Y + 3"
    oracle = whitney_rank_polynomial(3, [(0, 1), (1, 2), (0, 2)])
    assert relative_tutte(G) == oracle


def test_relative_tutte_random_matches_whitney_oracle():
    rng = random.Random(11)
    for trial in range(20):
        M = grow_plane_map(rng, rng.randint(0, 6))
        G = RelPlaneGraph(M, weights={i: (ONE, ONE) for i in range(M.num_edges)})
        abstract = [(M.vertex_of(e.ends[0]), M.vertex_of(e.ends[1]))
                    for e in M.edges]
        assert relative_tutte(G) == whitney_rank_polynomial(M.num_vertices,
                                                            abstract)


def test_contract_all_counts_loops():
    # contracting a triangle: two merges then one loop deletion
    M = triangle()
    G = RelPlaneGraph(M)
    res = contract_all(G, [0, 1, 2])
    assert res.map.num_vertices == 1
    assert res.map.num_edges == 0
    assert res.deleted_loops == 1


def test_submap_keeps_spanning_vertices():
    M = triangle()
    m = submap(M, [0])
    assert m.num_vertices == 3 and m.num_edges == 1


def test_dual_triangle():
    G = RelPlaneGraph(triangle())
    Gs = dual(G)
    assert Gs.map.num_vertices == 2
    assert Gs.map.num_edges == 3
    Gs.map.require_plane()
    # weights swap
    assert Gs.weights[0] == (G.weights[0][1], G.weights[0][0])


def test_dual_involution_preserves_polynomial():
    rng = random.Random(3)
    for trial in range(10):
        M = grow_plane_map(rng, rng.randint(0, 5))
        zero = {i for i in range(M.num_edges) if rng.random() < 0.3}
        G = RelPlaneGraph(M, zero)
        GG = dual(dual(G))
        assert relative_tutte(GG) == relative_tutte(G)


def seeded_relative_plane_graphs():
    """Generated relative plane graphs, and those of ribbon graphs and links."""
    for seed in range(1, 5):
        for size in range(9):
            yield generate("rpg", seed, size)
    for seed in range(1, 4):
        for size in range(6):
            yield ribbon_to_plane(generate("ribbon", seed, size))[0]
        for size in range(7):
            yield link_to_tait(generate("link", seed, size))


def test_relative_tutte_matches_contraction_oracle():
    for G in seeded_relative_plane_graphs():
        assert relative_tutte(G) == relative_tutte_by_contraction(G), G


def test_side_cycles_count_medial_circles_of_contracted_remainder():
    # n(F) + delta(H_F) = side cycles of F u H with F untwisted, H twisted
    for G in seeded_relative_plane_graphs():
        M, H, regular = G.map, sorted(G.zero), G.regular_indices()
        for mask in range(1 << len(regular)):
            F = [ei for i, ei in enumerate(regular) if mask >> i & 1]
            nF = len(F) - M.num_vertices + M.components(F)
            delta = medial_circles(contract_all(G, F).map)
            assert side_cycles(M, F + H, set(F)) - nF == delta, (G, F)
