"""The relative Tutte polynomial read off one frontier census.

When the regular edges carry few distinct weight pairs, ``util.tally``
counts the subsets in one ``util.census`` pass over ``relative_kernel``,
by set bits per pair, side cycles, and the joins of ``relative_joins``'
two partitions (the vertices and the components of H), the same kernel
and partitions that ``util.sweep`` enumerates otherwise, and
``relative_tutte`` reads both engines' records with one term formula.
Here the census is forced (``util._census_pays`` patched to count every
pair) and
compared with the enumerating body kept as
``helpers.relative_tutte_by_states`` and with the contraction oracle, also
on per-edge symbolic weights, where ``poly.class_sum`` gets one class per
edge.  The default dispatch is pinned separately: per-edge symbolic weights
and small instances enumerate.  A map of higher genus is refused.
"""

import random
from collections import Counter

import pytest

from rgpoly import util
from rgpoly.cli import main
from rgpoly.convert import link_to_tait
from rgpoly.errors import GenusError, SizeLimit
from rgpoly.formats import serialize_rpg
from rgpoly.planemap import MapEdge, PlaneMap, RelPlaneGraph, relative_tutte
from rgpoly.poly import ONE, var
from rgpoly.verify import generate

from helpers import relative_tutte_by_contraction, relative_tutte_by_states


@pytest.fixture
def census_always(monkeypatch):
    monkeypatch.setattr(util, "_census_pays", Counter)


@pytest.fixture
def census_refused(monkeypatch):
    def refuse(*args):
        raise AssertionError("the census ran")
    monkeypatch.setattr(util, "census", refuse)


def _reweighted(G, rng, pairs):
    return RelPlaneGraph(G.map, G.zero, {i: rng.choice(pairs) for i in G.regular_indices()})


def _rpg_families():
    # the default per-edge symbolic weights (a class per edge), one class,
    # two monomial classes, and a class of multi-term weights
    unit = [(ONE, ONE)]
    two = [(ONE, ONE), (var("x_minus"), var("y_minus"))]
    multi = [(var("a") + 1, var("b") - 2), (var("x_minus"), ONE)]
    for seed in range(20):
        for size in range(11):
            G = generate("rpg", seed, size)
            yield (seed, size, "symbolic"), G
            rng = random.Random(seed * 31 + size)
            for pairs in (unit, two, multi):
                yield (seed, size, len(pairs)), _reweighted(G, rng, pairs)


def test_census_matches_enumeration_on_tait_graphs(census_always):
    for seed in range(40):
        for size in range(13):
            G = link_to_tait(generate("link", seed, size))
            T, oracle = relative_tutte(G), relative_tutte_by_states(G)
            assert T == oracle and T.canonical() == oracle.canonical(), (seed, size)
            if size <= 7:
                assert T == relative_tutte_by_contraction(G), (seed, size)


def test_census_matches_enumeration_on_weighted_rpg_maps(census_always):
    for key, G in _rpg_families():
        T, oracle = relative_tutte(G), relative_tutte_by_states(G)
        assert T == oracle and T.canonical() == oracle.canonical(), key
        if key[1] <= 7:
            assert T == relative_tutte_by_contraction(G), key


def test_symbolic_weights_stay_on_enumeration(census_refused):
    G = generate("rpg", 4, 20)      # x_e, y_e per regular edge
    assert len(G.regular_indices()) >= 7
    assert relative_tutte(G) == relative_tutte_by_states(G)


def test_small_two_class_graph_stays_on_enumeration(census_refused):
    for seed in range(40):
        G = link_to_tait(generate("link", seed, 6))
        assert relative_tutte(G) == relative_tutte_by_states(G), seed


def test_census_runs_on_a_large_few_class_graph(monkeypatch):
    calls = []
    census = util.census

    def counted(*args):
        calls.append(args)
        return census(*args)
    monkeypatch.setattr(util, "census", counted)
    G = link_to_tait(generate("link", 3, 10))
    assert relative_tutte(G) == relative_tutte_by_states(G)
    assert len(calls) == 1


def _torus(pendants: int) -> PlaneMap:
    # one vertex with two interleaved loops (genus 1), and a path of
    # pendant edges hanging off it
    rotation = ["a1", "b1", "a2", "b2"]
    edges = [MapEdge(("a1", "a2"), "a"), MapEdge(("b1", "b2"), "b")]
    vertices = [rotation]
    for i in range(pendants):
        vertices[-1].append(f"p{i}")
        vertices.append([f"q{i}"])
        edges.append(MapEdge((f"p{i}", f"q{i}"), f"p{i}"))
    return PlaneMap(vertices, edges)


def _refused(M: PlaneMap):
    weights = {i: (ONE, ONE) for i in range(M.num_edges)}
    with pytest.raises(GenusError, match="not genus 0: Euler deficit -2"):
        RelPlaneGraph(M, weights=weights)
    return weights


def test_non_plane_graph_falls_back_to_enumeration():
    # there is no fallback off genus 0 any more: the side cycles no longer
    # give psi(H_F) there, so the map is refused where the graph is built
    for pendants in (0, 6):
        _refused(_torus(pendants))


def test_non_plane_graph_fails_the_genus_check_by_default():
    # 8 unit-weight edges: the cost rule would pick the census, but the map
    # is refused first, as the side cycles give psi(H_F) only on genus 0
    weights = _refused(_torus(6))
    assert util._census_pays(list(weights.values()))
    assert not util._census_pays(list(_refused(_torus(0)).values()))


def test_census_past_its_entry_bound_raises_size_limit(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(util, "CENSUS_ENTRIES", 8)
    G = link_to_tait(generate("link", 3, 12))
    with pytest.raises(SizeLimit, match="more than 8 histogram entries"):
        relative_tutte(G)
    path = tmp_path / "tait.rpg"
    path.write_text(serialize_rpg(G))
    assert main(["rtutte", str(path)]) == 2
    assert "more than 8 histogram entries" in capsys.readouterr().err


def test_regular_edge_cap_holds_on_the_census_path():
    G = link_to_tait(generate("link", 3, 26))
    with pytest.raises(SizeLimit, match="26 regular edges exceeds the enumeration cap 24"):
        relative_tutte(G)
