import random
from collections import Counter

from rgpoly import convert, links
from rgpoly.convert import link_to_tait, plane_to_ribbon, ribbon_to_plane
from rgpoly.formats import serialize_rpg
from rgpoly.planemap import MapEdge, PlaneMap, RelPlaneGraph, relative_tutte
from rgpoly.poly import ONE, var
from rgpoly.ribbon import RibbonGraph, bollobas_riordan, make_edge
from rgpoly.links import realize_gauss_code
from rgpoly.router import route
from rgpoly.verify import generate, generate_ribbon

from helpers import (flip_equivalent, link_to_tait_by_adjacency,
                     plane_to_ribbon_by_medial_walk, route_by_scans)


def test_untwisted_loop_to_plane():
    R = RibbonGraph([("a", "b")], [make_edge("a", "b", label="e")])
    G, cert = ribbon_to_plane(R)
    assert G.map.num_vertices == 1
    assert G.map.num_edges == 1
    assert G.zero == frozenset()
    assert cert.g_to_r == {0: 0}
    assert G.weights[0] == (R.edges[0].x, R.edges[0].y)


def test_twisted_loop_to_plane():
    R = RibbonGraph([("a", "b")], [make_edge("a", "b", sign=-1, label="e")])
    G, _ = ribbon_to_plane(R)
    assert G.map.num_vertices == 2
    assert G.map.num_edges == 2
    assert len(G.zero) == 1
    assert relative_tutte(G) == var("x_e") + var("y_e") * var("w")


def test_gadget_accounting():
    # |H| = 4c + tau: one 0-edge per twist plus a quadrilateral per crossing
    rng = random.Random(2)
    for trial in range(25):
        R = generate_ribbon(rng, rng.randint(0, 6))
        tau = sum(1 for e in R.edges if e.sign < 0)
        rd = route([list(v) for v in R.vertices],
                   [tuple(e.ends) for e in R.edges],
                   [["reg"] + (["twist"] if e.sign < 0 else []) for e in R.edges])
        c = len(rd.crossing_vertices)
        G, cert = ribbon_to_plane(R)
        assert len(G.zero) == 4 * c + tau
        assert sorted(cert.g_to_r.values()) == list(range(R.num_edges))


def _recorded_route_calls(monkeypatch, instances):
    # record the router inputs of ribbon_to_plane (reg and twist marks) and
    # of the Gauss-code realizer (terminals and connections only)
    calls = []

    def recording(*args):
        calls.append(args)
        return route(*args)

    monkeypatch.setattr(convert, "route", recording)
    monkeypatch.setattr(links, "route", recording)
    for seed, size in instances:
        ribbon_to_plane(generate("ribbon", seed, size))
        generate("link", seed, size)
    assert len(calls) == 2 * len(instances)
    return calls


def test_router_matches_scanning_router(monkeypatch):
    calls = _recorded_route_calls(
        monkeypatch, [(seed, size) for seed in range(30) for size in range(9)])
    crossings = 0
    for args in calls:
        rd = route(*args)
        m, terminals, xs, rotations, mark_vertices, path_segments = route_by_scans(*args)
        assert rd.map.vertices == m.vertices and rd.map.edges == m.edges, args
        assert list(rd.crossing_vertices) == xs, args
        assert rd.mark_vertices == mark_vertices, args
        assert rd.path_segments == path_segments, args
        # the vertex order the router documents
        assert terminals == list(range(len(args[0]))), args
        assert [rd.map.vertices[xi] for xi in rd.crossing_vertices] == rotations, args
        crossings += len(xs)
    assert crossings > 1000


def test_router_crosses_each_interleaved_pair_once_and_nothing_else(monkeypatch):
    # on the baseline, two spans are nested, disjoint or interleaved; only
    # interleaved pairs must cross, and then exactly once
    calls = _recorded_route_calls(
        monkeypatch, [(seed, size) for seed in range(30) for size in range(9)]
        + [(seed, size) for seed in range(3) for size in (14, 20)])
    crossings = 0
    for args in calls:
        terminals, connections = args[0], args[1]
        baseline = [s for rot in terminals for s in reversed(rot)]
        spans = [sorted((baseline.index(p), baseline.index(q))) for p, q in connections]
        interleaved = {(i, j) for i, (a, b) in enumerate(spans) for j, (c, d) in enumerate(spans)
                       if i < j and (a < c < b < d or c < a < d < b)}
        rd = route(*args)
        owner = {dart: ci for ci, segs in enumerate(rd.path_segments)
                 for seg in segs for dart in seg}
        crossed = Counter()
        for v in rd.crossing_vertices:
            east, north, west, south = rd.map.vertices[v]
            assert owner[east] == owner[west] and owner[north] == owner[south], args
            crossed[tuple(sorted((owner[east], owner[north])))] += 1
        assert len(rd.crossing_vertices) == len(interleaved), args
        assert crossed == Counter(interleaved), args
        crossings += len(interleaved)
    assert crossings > 1000


def test_plane_to_ribbon_loop():
    M = PlaneMap([("a", "b")], [MapEdge(("a", "b"), "e")])
    R = plane_to_ribbon(RelPlaneGraph(M))
    assert R.num_vertices == 1
    assert len(R.edges) == 1
    assert R.edges[0].sign == 1


def test_plane_to_ribbon_zero_path():
    M = PlaneMap([("e0", "h0"), ("e1", "h1")],
                 [MapEdge(("e0", "e1"), "e"), MapEdge(("h0", "h1"), "h")])
    R = plane_to_ribbon(RelPlaneGraph(M, zero={1}))
    assert R.num_vertices == 1
    assert len(R.edges) == 1
    assert R.edges[0].sign == -1


def test_plane_to_ribbon_matches_the_medial_walk_up_to_flips():
    # the rebuilt R lists its discs by lowest regular slot, so it is the
    # walk's signed rotation system up to vertex order, rotation start and
    # vertex flips, with the same B_R
    for seed in range(40):
        for size in range(9):
            for G in (generate("rpg", seed, size),
                      ribbon_to_plane(generate("ribbon", seed, size))[0]):
                R, old = plane_to_ribbon(G), plane_to_ribbon_by_medial_walk(G)
                assert flip_equivalent(old, R), (seed, size)
                if size <= 7:
                    assert bollobas_riordan(R) == bollobas_riordan(old), (seed, size)


def test_flip_equivalence_rejects_a_changed_sign_or_rotation():
    R = RibbonGraph([("a1", "a2", "a3"), ("b1", "b2", "b3")],
                    [make_edge("a1", "b1", label="e1"), make_edge("a2", "b2", label="e2"),
                     make_edge("a3", "b3", sign=-1, label="e3")])
    flipped = RibbonGraph([("b1", "b3", "b2"), ("a2", "a3", "a1")],
                          [make_edge(*e.ends, sign=-e.sign, label=e.label) for e in R.edges])
    assert flip_equivalent(R, flipped)
    one_sign = RibbonGraph(R.vertices, R.edges[:2] + [make_edge("a3", "b3", label="e3")])
    assert not flip_equivalent(R, one_sign)
    reversed_rotation = RibbonGraph([("a3", "a2", "a1"), R.vertices[1]], R.edges)
    assert not flip_equivalent(R, reversed_rotation)


def test_round_trip_preserves_bollobas_riordan():
    rng = random.Random(4)
    for trial in range(30):
        R = generate_ribbon(rng, rng.randint(0, 6))
        G, _ = ribbon_to_plane(R)
        back = plane_to_ribbon(G)
        assert bollobas_riordan(back) == bollobas_riordan(R)


def test_tait_of_unknot():
    G = link_to_tait(realize_gauss_code(""))
    assert G.map.num_vertices == 1
    assert G.map.num_edges == 0


def test_tait_of_kink():
    G = link_to_tait(realize_gauss_code("O1+U1+"))
    assert G.map.num_edges == 1
    assert G.zero == frozenset()
    assert set(G.signs.values()) <= {1, -1}
    ends = G.map.edges[0].ends
    # single crossing: the regular edge is a loop or a bridge
    assert G.map.vertex_of(ends[0]) in range(G.map.num_vertices)


def test_tait_weights_by_sign():
    L = realize_gauss_code("O1+U2-O2-U1+")
    G = link_to_tait(L)
    for i in G.regular_indices():
        if G.signs[i] > 0:
            assert G.weights[i] == (ONE, ONE)
        else:
            assert G.weights[i] == (var("x_minus"), var("y_minus"))


def test_tait_virtual_crossings_become_zero_edges():
    L = realize_gauss_code("O1+O2+U1+U2+")
    G = link_to_tait(L)
    n_virtual = L.map.num_vertices - len(L.classical)
    assert len(G.zero) == n_virtual
    assert len(G.regular_indices()) == len(L.classical)


def test_tait_graph_matches_the_adjacency_shading():
    """Shading over each face's own walk gives the Tait graph, signs
    included, that the face-adjacency shading gave."""
    for seed in range(30):
        for size in range(11):
            L = generate("link", seed, size)
            G, old = link_to_tait(L), link_to_tait_by_adjacency(L)
            assert serialize_rpg(G) == serialize_rpg(old), (seed, size)
            assert G.signs == old.signs, (seed, size)
