"""Executable identity checks and seeded instance generators.

Every theorem relating the polynomials is run as an exact polynomial
equality (coefficient by coefficient, with symbolic edge weights); a check
never involves tolerances.  Failures reproduce from (kind, seed, size).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .convert import link_to_tait, ribbon_to_plane
from .errors import SizeLimit
from .links import kauffman_bracket, realize_gauss_code
from .planemap import (
    _TOO_MANY_REGULAR,
    MapEdge,
    PlaneMap,
    RelPlaneGraph,
    dart_walks,
    dual,
    relative_joins,
    relative_tutte,
    remainders,
)
from .poly import Polynomial, monomial, swap_vars
from .ribbon import (
    DEFAULT_EDGE_CAP,
    RibbonGraph,
    bollobas_riordan,
    make_edge,
    side_kernel,
    twist_links,
)
from .util import sweep

HALF = Fraction(1, 2)

SQRT_XY = {"d": monomial(1, {"X": HALF, "Y": HALF}),
           "w": monomial(1, {"X": HALF, "Y": -HALF})}
INV_SQRT_XY = {"Z": monomial(1, {"X": -HALF, "Y": -HALF})}

# regular edges; the reference walk takes 15-75 us per subset at 10-16 of
# them (routed maps of 59-272 edges), 3.2-4.9 s at 16, on a 2-core VM
REFERENCE_CAP = 16


class _Text:
    """A dataclass field read as text that may be set to a ``Polynomial``:
    the polynomial is rendered by ``canonical()`` on the first read, and
    the text kept.  Its default is ""."""

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            return ""
        value = getattr(obj, self.slot)
        if isinstance(value, Polynomial):
            value = value.canonical()
            setattr(obj, self.slot, value)
        return value

    def __set__(self, obj, value):
        setattr(obj, self.slot, value)


@dataclass
class CheckReport:
    """One check's outcome on one instance.  ``left`` and ``right`` are the
    canonical text of the two sides compared, or a failure detail; a check
    passes them as polynomials, rendered only when read."""

    name: str
    instance: str
    passed: bool
    left: str = _Text()
    right: str = _Text()
    seed: int | None = None

    def line(self, size=None) -> str:
        status = "PASS" if self.passed else "FAIL"
        bits = [status, self.name]
        if self.seed is not None:
            bits.append(f"seed={self.seed}")
        if size is not None:
            bits.append(f"size={size}")
        return " ".join(bits)


# -- generators -------------------------------------------------------


def generate(kind: str, seed: int, size: int):
    """Deterministic random instance of the given kind and size."""
    if kind not in _GENERATORS:
        raise ValueError(f"unknown instance kind {kind!r}")
    return _GENERATORS[kind](random.Random(seed * 1000003 + size), size)


def generate_ribbon(rng: random.Random, n_edges: int) -> RibbonGraph:
    n_vertices = rng.randint(1, max(1, n_edges))
    rotations = [[] for _ in range(n_vertices)]
    edges = []
    for i in range(n_edges):
        ends = []
        for j in range(2):
            h = f"h{i}{'ab'[j]}"
            v = rng.randrange(n_vertices)
            rotations[v].insert(rng.randint(0, len(rotations[v])), h)
            ends.append(h)
        edges.append(make_edge(*ends, sign=rng.choice([1, -1]), label=f"e{i}"))
    return RibbonGraph(rotations, edges)


def grow_plane_map(rng: random.Random, n_edges: int) -> PlaneMap:
    """Random genus-0 map grown by planar edge insertions into faces."""
    rotations = [[] for _ in range(rng.randint(1, 3))]
    edges: list[MapEdge] = []

    def insert_after(corner, h):
        v, anchor = corner          # no anchor: an isolated vertex's corner
        rot = rotations[v]
        rot.insert(len(rot) if anchor is None else rot.index(anchor) + 1, h)

    for i in range(n_edges):
        if rng.random() < 0.1:
            rotations.append([])
        M = PlaneMap(rotations, edges)
        partner = M.partner
        comp_of = M.roots().__getitem__
        # per face, in the order of ``faces``: its component and its corners
        corner_lists = [(comp_of(M.vertex_of(walk[0])),
                         [(M.vertex_of(partner[d]), partner[d]) for d in walk])
                        for walk in dart_walks(M)]
        corner_lists += [(comp_of(v), [(v, None)])
                         for v, cycle in enumerate(M.vertices) if not cycle]
        fi = rng.randrange(len(corner_lists))
        comp1, corners1 = corner_lists[fi]
        c1 = rng.choice(corners1)
        others = [cl for cl in corner_lists if cl[0] != comp1]
        if others and rng.random() < 0.4:
            _, corners2 = rng.choice(others)
            c2 = rng.choice(corners2)
        else:
            c2 = rng.choice(corners1)
        h1, h2 = f"g{i}a", f"g{i}b"
        insert_after(c1, h1)
        insert_after(c2, h2)
        edges.append(MapEdge((h1, h2), f"e{i}"))
    return PlaneMap(rotations, edges)


def generate_rpg(rng: random.Random, n_edges: int) -> RelPlaneGraph:
    M = grow_plane_map(rng, n_edges)
    zero = {i for i in range(M.num_edges) if rng.random() < 0.35}
    signs = {i: rng.choice([1, -1]) for i in range(M.num_edges) if i not in zero}
    return RelPlaneGraph(M, zero, signs=signs)


def generate_link(rng: random.Random, n_classical: int):
    if n_classical == 0:
        return realize_gauss_code("")
    tokens = []
    signs = {i: rng.choice("+-") for i in range(1, n_classical + 1)}
    for i in range(1, n_classical + 1):
        tokens.append(f"O{i}{signs[i]}")
        tokens.append(f"U{i}{signs[i]}")
    rng.shuffle(tokens)
    if n_classical >= 3 and rng.random() < 0.4:
        cut = rng.randint(1, len(tokens) - 1)
        words = ["".join(tokens[:cut]), "".join(tokens[cut:])]
    else:
        words = ["".join(tokens)]
    if rng.random() < 0.15:
        words.append("")
    return realize_gauss_code(" | ".join(words))


_GENERATORS = {"ribbon": generate_ribbon, "rpg": generate_rpg, "link": generate_link}


# -- checks -----------------------------------------------------------


def check_main_theorem(R: RibbonGraph, seed=None) -> CheckReport:
    """X^alpha Y^beta T_{G,H}(X,Y) = B_R(X,Y,1/sqrt(XY)) under w,d -> sqrt."""
    G, _cert = ribbon_to_plane(R)
    beta = Fraction(-(R.num_vertices - G.map.num_vertices), 2)
    alpha = G.map.components() - R.components() - beta
    left = monomial(1, {"X": alpha, "Y": beta}) * relative_tutte(G).subs(SQRT_XY)
    right = bollobas_riordan(R).subs(INV_SQRT_XY)
    return CheckReport("main_theorem", repr(R), left == right, left, right, seed)


def check_subset_identities(R: RibbonGraph, G: RelPlaneGraph, cert,
                            seed=None) -> CheckReport:
    """Per-subset bookkeeping behind the main theorem, for every F: k, v
    and delta of H_F from the reference walk ``remainders``, which
    contracts F inside F u H on G's own rotations, and bc(F') and k(F),
    k(F u H) from one ``util.sweep`` over a kernel of R, its edges in the
    order of their regular edges in G, with the joins of F's ends on G's
    vertices and on H's classes.  Both stream their subsets in ascending
    mask order, one at a time; a stream that ends before the other fails
    the check.  More regular edges than the enumeration
    cap of ``relative_tutte``, or than ``REFERENCE_CAP``, raise SizeLimit."""
    regular = G.regular_indices()
    if len(regular) > DEFAULT_EDGE_CAP:
        raise SizeLimit(_TOO_MANY_REGULAR.format(n=len(regular), cap=DEFAULT_EDGE_CAP))
    if len(regular) > REFERENCE_CAP:
        raise SizeLimit(f"{len(regular)} regular edges exceeds the reference "
                        f"check's cap {REFERENCE_CAP}")
    bc = side_kernel(R, twist_links(R), [cert.g_to_r[ei] for ei in regular])
    nv = G.map.num_vertices
    ends, kH = relative_joins(G)
    detail = ""
    for n, (record, remainder) in enumerate(zip_longest(sweep(bc, ends), remainders(G))):
        if record is None or remainder is None:
            short = "sweep" if record is None else "reference walk"
            detail = f"the {short} ends after {n} of {1 << len(regular)} subsets"
            break
        (mask, ones, bcFr, j, jh, _), (kHF, vHF, delta) = record, remainder
        f = mask.bit_count()
        kFH = kH - jh
        kF = nv - j
        nF = f - nv + kF
        checks = {
            "|E(F)|=|E(F')|": f == ones,
            "k(H_F)=k(FuH)": kHF == kFH,
            "bc(F')=n(F)+delta(H_F)": bcFr == nF + delta,
            "v(H_F)=k(F)": vHF == kF,
        }
        if not all(checks.values()):
            F = [regular[i] for i in range(len(regular)) if mask >> i & 1]
            detail = f"F={F}: " + ", ".join(k for k, v in checks.items() if not v)
            break
    return CheckReport("subset_identities", repr(R), not detail, detail, "", seed)


def check_duality(G: RelPlaneGraph, seed=None) -> CheckReport:
    """The duality identity, plus dual(dual(G)) preserving the polynomial."""
    Gs = dual(G)
    M, Ms = G.map, Gs.map
    a = Fraction(len(G.regular_indices()) - M.num_vertices, 2) + M.components()
    b = Fraction(M.num_vertices, 2)
    a_s = Fraction(len(Gs.regular_indices()) - Ms.num_vertices, 2) + Ms.components()
    b_s = Fraction(Ms.num_vertices, 2)
    T = relative_tutte(G)
    Ts = relative_tutte(Gs)
    # T*(Y,X): substitute w,d first, then swap the arguments, so that the
    # psi-variables are evaluated at the swapped point as well
    left = monomial(1, {"X": a, "Y": b}) * T.subs(SQRT_XY)
    right = (monomial(1, {"Y": a_s, "X": b_s})
             * swap_vars(Ts.subs(SQRT_XY), "X", "Y"))
    involution = relative_tutte(dual(Gs)) == T
    passed = left == right and involution
    return CheckReport("duality", repr(G), passed, left, right, seed)


def check_bracket(L, seed=None) -> CheckReport:
    """[L](A,B,d) as the prefactored specialization of the Tait graph's T."""
    G = link_to_tait(L)
    M = G.map
    v, k = M.num_vertices, M.components()
    e_reg = len(G.regular_indices())
    specialized = relative_tutte(G).subs({
        "X": monomial(1, {"A": -1, "B": 1, "d": 1}),
        "Y": monomial(1, {"A": 1, "B": -1, "d": 1}),
        "w": monomial(1, {"A": -1, "B": 1}),
        "x_minus": monomial(1, {"A": -1, "B": 1}),
        "y_minus": monomial(1, {"A": 1, "B": -1}),
    })
    right = monomial(1, {"A": v - k, "B": e_reg - v + k, "d": k - 1}) * specialized
    left = kauffman_bracket(L)
    return CheckReport("bracket_theorem", repr(L), left == right, left, right, seed)


# -- suite driver -----------------------------------------------------


def _check_identities(R: RibbonGraph, seed=None) -> CheckReport:
    G, cert = ribbon_to_plane(R)
    return check_subset_identities(R, G, cert, seed=seed)


CHECKS = {      # check name -> (instance kind, check)
    "main": ("ribbon", check_main_theorem),
    "identities": ("ribbon", _check_identities),
    "duality": ("rpg", check_duality),
    "bracket": ("link", check_bracket),
}


def run_suite(checks: list[str], count: int, seed: int, max_size: int):
    """Yield (CheckReport, size) for ``count`` seeded instances per check.
    Instance ``i`` is ``generate(kind, s, size)`` for its check's kind,
    where s = seed * 1009 + i and size is drawn from ``random.Random(s)``."""
    for name in checks:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}")
        kind, check = CHECKS[name]
        for i in range(count):
            inst_seed = seed * 1009 + i
            size = random.Random(inst_seed).randint(0, max_size)
            yield check(generate(kind, inst_seed, size), seed=inst_seed), size
