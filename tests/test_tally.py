"""``util.tally``: the one engine choice of the state sums.

``relative_tutte`` and ``kauffman_bracket`` take their weight classes and
state records from ``util.tally``, which runs the frontier census when
``util._census_pays`` counts the weight pairs and the depth-first sweep
otherwise.  Forcing each engine in turn must give the same polynomial text
on both sums; the default choice is pinned on both sides of the rule, and
``bollobas_riordan`` always sweeps.  ``tests/test_kernel.py`` compares the
two engines' records on B_R side kernels.
"""

import random
from collections import Counter

import pytest

from rgpoly import ribbon, util
from rgpoly.convert import link_to_tait, ribbon_to_plane
from rgpoly.links import kauffman_bracket
from rgpoly.planemap import RelPlaneGraph, relative_tutte
from rgpoly.poly import ONE, var
from rgpoly.ribbon import RibbonGraph, bollobas_riordan, make_edge
from rgpoly.verify import generate

TWO = [(ONE, ONE), (var("x_minus"), var("y_minus"))]


def _reweighted(R, pairs, rng):
    return RibbonGraph(R.vertices, [make_edge(*e.ends, sign=e.sign, label=e.label,
                                              x=x, y=y)
                                    for e in R.edges for x, y in [rng.choice(pairs)]])


def _sums():
    # (key, state sum) with at most 10 enumerated elements: relative_tutte
    # of generated, two-class, routed and Tait graphs; brackets
    for seed in range(8):
        rng = random.Random(seed)
        for size in range(11):
            R = generate("ribbon", seed, size)
            G = generate("rpg", seed, size)
            graphs = [G, RelPlaneGraph(G.map, G.zero, {i: rng.choice(TWO)
                                                       for i in G.regular_indices()})]
            if size <= 5:
                graphs.append(ribbon_to_plane(R)[0])
            L = generate("link", seed, size)
            graphs.append(link_to_tait(L))
            for i, graph in enumerate(graphs):
                if len(graph.regular_indices()) <= 10:
                    yield (seed, size, "rtutte", i), lambda g=graph: relative_tutte(g)
            yield (seed, size, "bracket"), lambda L=L: kauffman_bracket(L)


def test_both_engines_give_the_same_text(monkeypatch):
    for key, run in _sums():
        texts = []
        for pays in (True, False):
            monkeypatch.setattr(util, "_census_pays", Counter if pays else lambda weights: None)
            texts.append(run().canonical())
        assert texts[0] == texts[1], key


@pytest.fixture
def engines(monkeypatch):
    """The engines ``tally`` ran, in call order."""
    ran = []
    for name in ("census", "sweep"):
        engine = getattr(util, name)

        def spy(*args, name=name, engine=engine):
            ran.append(name)
            return engine(*args)
        monkeypatch.setattr(util, name, spy)
    return ran


def test_bollobas_riordan_always_sweeps(engines, monkeypatch):
    # symbolic, unit and two-class weights alike
    monkeypatch.setattr(ribbon, "sweep", util.sweep)
    rng = random.Random(0)
    for size in (7, 16):
        R = generate("ribbon", 5, size)
        for graph in (R, _reweighted(R, TWO[:1], rng), _reweighted(R, TWO, rng)):
            bollobas_riordan(graph)
    assert engines == ["sweep"] * 6


def test_small_brackets_take_the_sweep(engines):
    for seed in range(20):
        for size in range(7):
            L = generate("link", seed, size)
            assert len(L.classical) <= 6
            kauffman_bracket(L)
    assert set(engines) == {"sweep"}


def test_per_edge_symbolic_weights_never_take_the_census(engines):
    for size in (7, 10, 12):
        G = generate("rpg", 3, size + 8)
        assert len(G.regular_indices()) >= 7
        relative_tutte(G)
    assert set(engines) == {"sweep"}
