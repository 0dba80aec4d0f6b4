import random

import pytest

from rgpoly.errors import MalformedCode, MalformedDiagram, MissingOrientation, SizeLimit
from rgpoly.links import (
    VirtualLinkDiagram,
    jones,
    kauffman_bracket,
    realize_gauss_code,
    split,
    writhe,
)
from rgpoly.poly import parse, swap_vars, var
from rgpoly.verify import generate

from helpers import bracket_from_gauss_code, jones_from_gauss_code, kauffman_bracket_by_states

A, B, d = var("A"), var("B"), var("d")


def test_empty_code_is_unknot():
    L = realize_gauss_code("")
    assert L.free_loops == 1
    assert L.map.num_vertices == 0
    assert kauffman_bracket(L) == 1
    assert writhe(L) == 0
    assert jones(L) == 1


def test_kink_realization_and_splits():
    L = realize_gauss_code("O1+U1+")
    assert len(L.classical) == 1
    assert L.map.num_vertices == 1          # no virtual crossings needed
    ci = L.classical[0]
    deltas = sorted(split(L, {ci: s}) for s in "AB")
    assert deltas == [1, 2]


def test_kink_bracket_and_chirality():
    pos = kauffman_bracket(realize_gauss_code("O1+U1+"))
    neg = kauffman_bracket(realize_gauss_code("O1-U1-"))
    assert {pos, neg} == {A * d + B, A + B * d}
    assert pos != neg                       # bracket is not a link invariant


def test_kink_writhe_and_jones():
    assert writhe(realize_gauss_code("O1+U1+")) == 1
    assert writhe(realize_gauss_code("O1-U1-")) == -1
    assert jones(realize_gauss_code("O1+U1+")) == 1
    assert jones(realize_gauss_code("O1-U1-")) == 1


def test_trefoil_jones_matches_oracle():
    code = "O1+U2+O3+U1+O2+U3+"
    L = realize_gauss_code(code)
    assert len(L.classical) == 3
    assert writhe(L) == 3
    got = jones(L)
    assert got == jones_from_gauss_code(code)
    assert got == parse("-t^4 + t^3 + t")
    mirror = jones(realize_gauss_code("O1-U2-O3-U1-O2-U3-"))
    assert mirror == parse("t^(-1) + t^(-3) - t^(-4)")


def test_virtual_trefoil_needs_virtual_crossings():
    L = realize_gauss_code("O1+O2+U1+U2+")
    assert len(L.classical) == 2
    assert L.map.num_vertices > 2
    assert kauffman_bracket(L) == bracket_from_gauss_code("O1+O2+U1+U2+")


def test_random_codes_match_gauss_oracle():
    rng = random.Random(5)
    for trial in range(25):
        n = rng.randint(1, 4)
        tokens = []
        for i in range(1, n + 1):
            s = rng.choice("+-")
            tokens += [f"O{i}{s}", f"U{i}{s}"]
        rng.shuffle(tokens)
        code = "".join(tokens)
        L = realize_gauss_code(code)
        assert kauffman_bracket(L) == bracket_from_gauss_code(code)
        assert jones(L) == jones_from_gauss_code(code)


def test_mirror_swaps_A_and_B():
    rng = random.Random(9)
    for trial in range(15):
        L = generate("link", rng.randrange(10**6), rng.randint(0, 4))
        br = kauffman_bracket(L)
        assert kauffman_bracket(L.mirror()) == swap_vars(br, "A", "B")


def test_disjoint_union_multiplies_by_d():
    L1 = realize_gauss_code("O1+U1+")
    both = realize_gauss_code("O1+U1+ | O2-U2-")
    L2 = realize_gauss_code("O2-U2-")
    assert kauffman_bracket(both) == d * kauffman_bracket(L1) * kauffman_bracket(L2)


def test_state_count_is_two_to_n():
    L = realize_gauss_code("O1+U2+O3+U1+O2+U3+")
    counted = kauffman_bracket(L).subs({"A": 1, "B": 1, "d": 1})
    assert counted == 8


def test_reversing_all_components_keeps_writhe():
    L = realize_gauss_code("O1+U2-O2-U1+")
    flipped = VirtualLinkDiagram(
        L.map, L.kinds, L.over,
        {h: not v for h, v in L.orientations.items()}, L.free_loops)
    assert writhe(flipped) == writhe(L)


def test_malformed_codes():
    with pytest.raises(MalformedCode):
        realize_gauss_code("O1+")
    with pytest.raises(MalformedCode):
        realize_gauss_code("O1+O1+U1+")
    with pytest.raises(MalformedCode):
        realize_gauss_code("O1+U1-")
    with pytest.raises(MalformedCode):
        realize_gauss_code("X1+")


def test_malformed_diagram_degree():
    from rgpoly.planemap import MapEdge, PlaneMap
    M = PlaneMap([("a", "b")], [MapEdge(("a", "b"), "e")])
    with pytest.raises(MalformedDiagram):
        VirtualLinkDiagram(M, {0: "classical"}, {0: ("a", "b")})


def test_missing_orientation():
    L = realize_gauss_code("O1+U1+")
    bare = VirtualLinkDiagram(L.map, L.kinds, L.over, None, L.free_loops)
    with pytest.raises(MissingOrientation):
        writhe(bare)


def test_size_limit():
    L = realize_gauss_code("O1+U2+O3+U1+O2+U3+")
    with pytest.raises(SizeLimit):
        kauffman_bracket(L, cap=2)


def test_bracket_matches_state_enumeration():
    for seed in range(40):
        for size in range(13):
            L = generate("link", seed, size)
            assert kauffman_bracket(L) == kauffman_bracket_by_states(L), (seed, size)


def test_bracket_past_the_default_cap():
    # 2^30 states, far past what enumeration can visit
    L = generate("link", 3, 30)
    with pytest.raises(SizeLimit):
        kauffman_bracket(L)
    K = kauffman_bracket(L, cap=30)
    assert K.subs({"A": 1, "B": 1, "d": 1}) == 2 ** 30
    assert kauffman_bracket(L.mirror(), cap=30) == swap_vars(K, "A", "B")
