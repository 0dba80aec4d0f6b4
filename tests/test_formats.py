import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from rgpoly.errors import GenusError, MalformedDiagram, ParseError, RgpolyError
from rgpoly.formats import (
    parse_ribbon,
    parse_rpg,
    parse_vld,
    serialize_ribbon,
    serialize_rpg,
    serialize_vld,
)
from rgpoly.links import (
    VirtualLinkDiagram,
    jones,
    kauffman_bracket,
    realize_gauss_code,
    writhe,
)
from rgpoly import poly
from rgpoly.planemap import MapEdge, PlaneMap, RelPlaneGraph, relative_tutte
from rgpoly.poly import ONE, parse
from rgpoly.ribbon import RibbonGraph, bollobas_riordan, make_edge
from rgpoly.verify import generate


def test_minimal_ribbon_file():
    R = parse_ribbon("# a loop\nvertex v: a b\nedge e: a b sign=+\n")
    assert R.num_vertices == 1
    assert R.num_edges == 1
    assert R.edges[0].sign == 1
    assert bollobas_riordan(R) == parse("x_e*Y + y_e")


def test_ribbon_weights_and_sign():
    R = parse_ribbon("vertex v: a b\nedge e: a b sign=- x=3*t y=1\n")
    assert R.edges[0].sign == -1
    assert R.edges[0].x == parse("3*t")
    assert R.edges[0].y == parse("1")


def test_rpg_genus_rejection_names_deficit():
    text = "vertex v: a1 b1 a2 b2\nedge a: a1 a2\nedge b: b1 b2\n"
    with pytest.raises(GenusError, match="Euler deficit"):
        parse_rpg(text)


def test_vld_explicit_kink():
    # positive kink: rotation (W,S,E,N), over W,E; arcs E-S and N-W
    text = (
        "crossing c: kind=classical ends=w s e n over=w,e\n"
        "arc p: c.e c.s\n"
        "arc q: c.n c.w\n"
        "orient p: +\n"
    )
    L = parse_vld(text)
    assert len(L.classical) == 1
    assert kauffman_bracket(L) in (parse("A*d + B"), parse("A + B*d"))
    assert abs(writhe(L)) == 1


def test_vld_orient_lines_must_agree_on_a_strand():
    # p and q are the two arcs of the kink's one strand: q "+" agrees with
    # p "+", q "-" contradicts it, as does a second flag on p itself
    kink = ("crossing c: kind=classical ends=w s e n over=w,e\n"
            "arc p: c.e c.s\narc q: c.n c.w\norient p: +\n")
    agreed = parse_vld(kink + "orient q: +\norient p: +\n")
    assert agreed.orientations == parse_vld(kink).orientations
    with pytest.raises(ParseError, match="orient 'q' contradicts orient 'p'"):
        parse_vld(kink + "orient q: -\n")
    with pytest.raises(ParseError, match="orient 'p' contradicts orient 'p'"):
        parse_vld(kink + "orient p: -\n")


def test_vld_gauss_line():
    L = parse_vld("gauss O1+U2+O3+U1+O2+U3+\n")
    assert jones(L) == parse("-t^4 + t^3 + t")
    with pytest.raises(ParseError):
        parse_vld("gauss O1+U2+O3+U1+O2+U3+\ncrossing c: kind=virtual ends=a b c d\n")


def test_parse_errors_name_the_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_ribbon("vertex v: a b\nedge e a b\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_rpg("edge e: a b kind=weird\n")
    with pytest.raises(ParseError):
        parse_vld("crossing c: kind=classical ends=a b c\n")


def test_round_trips_on_random_instances():
    rng = random.Random(17)
    for trial in range(50):
        seed, size = rng.randrange(10**6), rng.randint(0, 5)
        R = generate("ribbon", seed, size)
        assert bollobas_riordan(parse_ribbon(serialize_ribbon(R))) == \
            bollobas_riordan(R)
        G = generate("rpg", seed, size)
        G2 = parse_rpg(serialize_rpg(G))
        assert relative_tutte(G2) == relative_tutte(G)
        assert G2.signs == G.signs
        L = generate("link", seed, min(size, 4))
        if L.free_loops:
            continue
        L2 = parse_vld(serialize_vld(L))
        assert kauffman_bracket(L2) == kauffman_bracket(L)
        assert writhe(L2) == writhe(L)


def test_explicit_vld_with_orient_lines_is_validated_once(monkeypatch):
    text = serialize_vld(generate("link", 3, 6))
    assert "\norient " in text
    calls = []
    check = PlaneMap.require_plane
    monkeypatch.setattr(PlaneMap, "require_plane", lambda M: calls.append(M) or check(M))
    L = parse_vld(text)
    assert len(calls) == 1
    assert L.orientations and serialize_vld(L) == text


def test_serialize_vld_rejects_free_loops_with_a_library_error():
    L = realize_gauss_code("O1+U1+ | ")
    assert L.free_loops == 1
    with pytest.raises(MalformedDiagram, match="free loops") as info:
        serialize_vld(L)
    assert isinstance(info.value, RgpolyError)


# -- serialize -> parse -> serialize, on generated instances ----------

_ROUND_TRIP = settings(max_examples=60, derandomize=True, deadline=None,
                       database=None)
_SEEDS = st.integers(0, 10 ** 6)


@_ROUND_TRIP
@given(_SEEDS, st.integers(0, 7))
def test_rg_text_round_trips(seed, size):
    text = serialize_ribbon(generate("ribbon", seed, size))
    assert serialize_ribbon(parse_ribbon(text)) == text


@_ROUND_TRIP
@given(_SEEDS, st.integers(0, 7))
def test_rpg_text_round_trips(seed, size):
    text = serialize_rpg(generate("rpg", seed, size))
    assert serialize_rpg(parse_rpg(text)) == text


def test_serializing_registers_no_variable_name():
    # the default weights x_<label>, y_<label> are told apart by their text,
    # so labels no polynomial has named stay unregistered and later output
    # does not depend on which files were written before
    R = RibbonGraph([("a", "b", "c", "d")],
                    [make_edge("a", "c", label="fresh_rg_p", x=ONE, y=ONE + ONE),
                     make_edge("b", "d", sign=-1, label="fresh_rg_q", x=ONE, y=ONE)])
    M = PlaneMap([("a", "b"), ("c", "d")],
                 [MapEdge(("a", "c"), "fresh_rpg_p"), MapEdge(("b", "d"), "fresh_rpg_q")])
    G = RelPlaneGraph(M, [1], {0: (ONE, ONE + ONE)})
    names = len(poly._names)
    rg, rpg = serialize_ribbon(R), serialize_rpg(G)
    assert len(poly._names) == names
    assert "edge fresh_rg_p: a c sign=+ x=1 y=2" in rg
    assert "x=1 y=2" in rpg


def _darts_named_by_crossing(L: VirtualLinkDiagram) -> VirtualLinkDiagram:
    """``L`` with dart h of crossing c renamed c.h, as ``parse_vld`` names
    the darts it reads; ``serialize_vld`` writes dart names as they are."""
    name = {h: f"c{ci}.{h}" for ci, cycle in enumerate(L.map.vertices)
            for h in cycle}
    M = PlaneMap([tuple(map(name.get, cycle)) for cycle in L.map.vertices],
                 [MapEdge(tuple(map(name.get, e.ends)), e.label)
                  for e in L.map.edges])
    over = {ci: frozenset(map(name.get, pair)) for ci, pair in L.over.items()}
    orientations = None if L.orientations is None else \
        {name[h]: out for h, out in L.orientations.items()}
    return VirtualLinkDiagram(M, L.kinds, over, orientations, L.free_loops)


@_ROUND_TRIP
@given(_SEEDS, st.integers(0, 5))
def test_vld_text_round_trips_up_to_dart_names(seed, size):
    L = generate("link", seed, size)
    assume(not L.free_loops)    # not serializable, as above
    assert serialize_vld(parse_vld(serialize_vld(L))) == \
        serialize_vld(_darts_named_by_crossing(L))


@_ROUND_TRIP
@given(_SEEDS, st.integers(0, 7))
def test_vld_text_is_a_fixed_point(seed, size):
    L = generate("link", seed, size)
    assume(not L.free_loops)    # not serializable, as above
    text = serialize_vld(L)
    assert serialize_vld(parse_vld(text)) == text
