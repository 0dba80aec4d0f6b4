"""Oracles that share no code with rgpoly: networkx and sympy.

The other oracles of this suite live in the repository (``helpers``,
``contract_all``, the dense-key renderer), so a misreading of a definition
that they share with the library would pass them all.  These read the
underlying multigraph or the rotations alone and compute the answer with
networkx; polynomials are compared as sympy expressions parsed from the
canonical text.  networkx and sympy are test dependencies only.
"""

import random

import networkx as nx
import sympy

from rgpoly.convert import ribbon_to_plane
from rgpoly.planemap import PlaneMap, RelPlaneGraph, relative_tutte
from rgpoly.poly import ONE
from rgpoly.ribbon import RibbonGraph, bollobas_riordan, make_edge
from rgpoly.verify import generate, generate_ribbon, grow_plane_map

X, Y = sympy.symbols("X Y")


def tutte_shifted(num_vertices, pairs):
    """networkx's Tutte polynomial of the multigraph at x = X + 1, y = Y + 1.

    Its symbols are mapped by name: a bouquet's polynomial holds ``y``
    alone, so mapping the sorted free symbols by position would be wrong."""
    g = nx.MultiGraph()
    g.add_nodes_from(range(num_vertices))
    g.add_edges_from(pairs)
    t = nx.tutte_polynomial(g)
    shift = {s: {"x": X + 1, "y": Y + 1}[s.name] for s in t.free_symbols}
    return sympy.expand(t.subs(shift, simultaneous=True))


def as_sympy(p):
    return sympy.expand(sympy.sympify(p.canonical().replace("^", "**"),
                                      locals={"X": X, "Y": Y}))


def test_bollobas_riordan_at_z_one_is_the_tutte_polynomial():
    # with unit weights, B_R(X, Y, 1) = T(X + 1, Y + 1) of R's multigraph
    for seed in range(10):
        for m in range(9):
            R = generate("ribbon", seed, m)
            unit = RibbonGraph(R.vertices, [make_edge(*e.ends, sign=e.sign, label=e.label,
                                                      x=ONE, y=ONE) for e in R.edges])
            got = as_sympy(bollobas_riordan(unit).subs({"Z": 1}))
            assert got == tutte_shifted(R.num_vertices, R.vertex_pairs()), (seed, m)


def test_relative_tutte_without_zero_edges_is_the_tutte_polynomial():
    # H empty and unit weights: every psi(H_F) is 1
    for seed in range(10):
        for m in range(9):
            M = generate("rpg", seed, m).map
            G = RelPlaneGraph(M, (), weights={i: (ONE, ONE) for i in range(M.num_edges)})
            got = as_sympy(relative_tutte(G))
            assert got == tutte_shifted(M.num_vertices, M.vertex_pairs()), (seed, m)


def embedding(M):
    """M's rotations as a networkx.PlanarEmbedding, every edge subdivided
    twice so that loops and parallel edges make a simple graph."""
    E = nx.PlanarEmbedding()
    beside = {}                 # half-edge -> the subdivision node next to it
    for i, (h1, h2) in enumerate(e.ends for e in M.edges):
        a, b = ("s", i, 0), ("s", i, 1)
        beside[h1], beside[h2] = a, b
        for s, t, h in ((a, b, h1), (b, a, h2)):
            E.add_half_edge_first(s, ("v", M.vertex_of(h)))
            E.add_half_edge_cw(s, t, ("v", M.vertex_of(h)))
    for v, rotation in enumerate(M.vertices):
        E.add_node(("v", v))
        for k, h in enumerate(rotation):
            if k == 0:
                E.add_half_edge_first(("v", v), beside[h])
            else:
                E.add_half_edge_cw(("v", v), beside[h], beside[rotation[k - 1]])
    return E


def is_plane(M):
    try:
        embedding(M).check_structure()
    except nx.NetworkXException:
        return False
    return True


def test_euler_deficit_is_zero_exactly_on_plane_embeddings():
    # grown and routed maps, each also with its rotations shuffled; each is
    # compared as soon as it is built, before any map must pass require_plane
    def maps(rng, m):
        for build in (lambda: grow_plane_map(rng, m),
                      lambda: ribbon_to_plane(generate_ribbon(rng, m))[0].map):
            M = build()
            yield M
            yield PlaneMap([rng.sample(r, len(r)) for r in M.vertices], M.edges)

    plane = other = 0
    for seed in range(10):
        rng = random.Random(seed)
        for m in range(10):
            for M in maps(rng, m):
                expected = is_plane(M)
                assert (M.euler_deficit() == 0) == expected, (seed, m, M.vertices)
                plane += expected
                other += not expected
    assert plane and other, (plane, other)
