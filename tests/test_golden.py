"""Golden CLI outputs: sha256 digests of stdout, recorded at commit 5c9572b,
before ribbon graphs and plane maps shared one rotation-system core.  The
two ``convert --to=ribbon`` digests were re-recorded when ``plane_to_ribbon``
began to list its discs by lowest regular slot (``ribbon.from_slots``):
the same signed rotation systems up to vertex order, rotation start and
vertex flips.  The two ``convert --to=plane`` and two ``convert --to=tait``
digests were re-recorded when the router began to give shorter spans lower
heights, which draws fewer crossings; every other digest held.

Every command runs in a fresh interpreter, because term order in
``canonical()`` follows the order in which the process first registered
each variable.
"""

import hashlib
import random
import re
import subprocess
import sys
from fractions import Fraction

from rgpoly import formats
from rgpoly.convert import link_to_tait, plane_to_ribbon, ribbon_to_plane
from rgpoly.links import jones, kauffman_bracket
from rgpoly.planemap import RelPlaneGraph, dual, faces, relative_tutte
from rgpoly.poly import ZERO, monomial, var
from rgpoly.ribbon import RibbonGraph, bollobas_riordan, make_edge
from rgpoly.verify import generate

# (kind, seed, size) -> file suffix, serializer
INSTANCES = {
    ("ribbon", 1, 4): (".rg", formats.serialize_ribbon),
    ("ribbon", 2, 5): (".rg", formats.serialize_ribbon),
    ("rpg", 6, 6): (".rpg", formats.serialize_rpg),
    ("rpg", 3, 6): (".rpg", formats.serialize_rpg),
    ("link", 3, 3): (".vld", formats.serialize_vld),
    ("link", 5, 4): (".vld", formats.serialize_vld),
}
COMMANDS = {
    "ribbon": (["br"], ["convert", "--to=plane"]),
    "rpg": (["rtutte"], ["dual"], ["convert", "--to=ribbon"]),
    "link": (["bracket"], ["jones"], ["convert", "--to=tait"]),
}

GOLDEN = {
    "br ribbon:1:4":
        "007d61a253f3e4bcb46039a09859f1e7be025acfdcb4e175bcced677eadbf3df",
    "convert --to=plane ribbon:1:4":
        "072b35d402a1936c884c8fd0fa6ae346ee73ac717b2ce033e612c82af7ad64ec",
    "br ribbon:2:5":
        "6834425cc1d1695bc20d9ff23a97fe866ceb74956109f2cf9d81d51d614404f5",
    "convert --to=plane ribbon:2:5":
        "e285f47da9d1294a6597c0b7f4ea4e52af8fb177bed63752e73f5669c4e0d767",
    "rtutte rpg:6:6":
        "783b015997eb607f5c0df8aa644411cb08b2fdaeb34f69ef9513be807a38715c",
    "dual rpg:6:6":
        "2d6772253d3fcb4fdb20fe89ec35d61896fb043b3290ba8be650338ce081f04b",
    "convert --to=ribbon rpg:6:6":
        "1984fcf6d38188fe07fbda974b9c3221c59f6217636e948fb95062d6ab299895",
    "rtutte rpg:3:6":
        "d71d52a79100fce7541164a6dce5753db5eaf5d411518e9246c63fa7d50396d9",
    "dual rpg:3:6":
        "0157200692f9c0e3b8fb3c304cb4e5babd855a2c9b6992adc372e7b372530b07",
    "convert --to=ribbon rpg:3:6":
        "f928b48abdb43bef4dfb2872239067fd13f7f98c2ca6a76129d1ba3e8962b6c6",
    "bracket link:3:3":
        "de051237b2c908ab929b524c3c705df6adad0d0bbff1d97d7c973dafef9d03c6",
    "jones link:3:3":
        "37ee889685c8b50591e05339e14005b01d23e02de29e647f321c962c2263454e",
    "convert --to=tait link:3:3":
        "cc5c84e98a94abdfa6b15ebb74f8aec43ddfd5383d0aaef06017f0d92535ebf9",
    "bracket link:5:4":
        "13413ac7a18a29dfba51a9f967c3f2d89e49696e34f0658856d139b3d85d2e31",
    "jones link:5:4":
        "72ef2ac847e7e100048bc17cd0088024327caf8fdf364dd6e278fa2e02cf734d",
    "convert --to=tait link:5:4":
        "01975f53667241418e493ee06ad021649713095666aa6db64be0ad457775cfa9",
}


def cli_digests(tmp_path) -> dict:
    out = {}
    for (kind, seed, size), (suffix, serialize) in INSTANCES.items():
        path = tmp_path / f"{kind}_{seed}_{size}{suffix}"
        path.write_text(serialize(generate(kind, seed, size)))
        for args in COMMANDS[kind]:
            proc = subprocess.run([sys.executable, "-m", "rgpoly.cli", *args,
                                   str(path)], capture_output=True, check=True)
            key = f"{' '.join(args)} {kind}:{seed}:{size}"
            out[key] = hashlib.sha256(proc.stdout).hexdigest()
    return out


def test_cli_outputs_match_recorded_digests(tmp_path):
    assert cli_digests(tmp_path) == GOLDEN


# -- structural outputs, hashed in-process -----------------------------
#
# Maps, rotations, face walks, strands and component counts carry no
# polynomial text, so their bytes do not depend on the variable registry
# and one in-process pass can hash them.  Recorded at commit 674aa98,
# before contraction spliced all edges into one map and the strand and
# circle walks moved onto ``util.cycles``; re-recorded with the disc order
# of ``ribbon.from_slots`` in ``plane_to_ribbon``, and again with the
# router's heights by span length.  That last change moved only the items
# of drawn diagrams: the routed plane graphs, their faces and edge
# certificates, the Tait graphs and the strands of realized links.

STRUCTURAL_GOLDEN = \
    "97ca1cb434f19ca9b905622f89b8ea46fe4a9d357758597630eb464a13a7ba55"


def structural_digest() -> str:
    h = hashlib.sha256()

    def put(item):
        h.update(item.encode() if isinstance(item, str) else repr(item).encode())
        h.update(b"\0")

    for seed in range(30):
        for size in range(7):
            R = generate("ribbon", seed, size)
            G, cert = ribbon_to_plane(R)
            put(formats.serialize_rpg(G))
            put(cert.g_to_r)
            put(faces(G.map))
            put([R.components(F) for F in _subsets(R.num_edges)])
            H = generate("rpg", seed, size)
            put(faces(H.map))
            put(formats.serialize_rpg(dual(H)))
            put(formats.serialize_ribbon(plane_to_ribbon(H)))
            L = generate("link", seed, size)
            put(formats.serialize_rpg(link_to_tait(L)))
            put(L.strand_components())
    return h.hexdigest()


def _subsets(m):
    return [[i for i in range(m) if mask >> i & 1] for mask in range(1 << m)]


def test_structural_outputs_match_recorded_digest():
    assert structural_digest() == STRUCTURAL_GOLDEN


# -- polynomials, hashed in-process as sorted terms --------------------
#
# ``canonical()`` orders terms and factors by registry id, so the in-process
# pass hashes each polynomial as its sorted list of terms, each term with
# its factors sorted (as ``perfbench/workloads.canonical_terms`` does): the
# digest does not depend on which names the process registered first.
# Recorded at commit 20449f8, before the state sums packed their exponent
# vectors into ints; re-recorded with the router's heights by span length,
# which moved only the relative Tutte polynomials of routed plane graphs and
# Tait graphs (B_R, the bracket and Jones hash as before).

POLYNOMIAL_GOLDEN = \
    "7379369b668b089294b75827283c9a7fd3a73b888eb4702fc30e82199d97514e"

_SEPARATOR = re.compile(r" ([+-]) ")


def sorted_terms(p) -> str:
    text = p.canonical()
    if text == "0":
        return text
    first = "+"
    if text.startswith("-"):
        first, text = "-", text[1:]
    parts = _SEPARATOR.split(text)
    signed = [(first, parts[0])] + list(zip(parts[1::2], parts[2::2]))
    return " ".join(sorted(sign + "*".join(sorted(body.split("*")))
                           for sign, body in signed))


def _weight(rng, name):
    """A weight drawn from multi-term, zero, non-unit, negative,
    quarter-exponent, builtin and huge-exponent polynomials."""
    v = var(name)
    return rng.choice([
        v,
        1 + var("t"),
        ZERO,
        -3 * v,
        var("Y") * v,
        monomial(1, {"Z": -1}),
        monomial(2, {"t": Fraction(1, 4), name: -1}),
        var("d") - 2 * var("t") ** 2,
        v + monomial(-1, {"u_big": 10 ** 12}),
    ])


def weighted_ribbon(seed, size) -> RibbonGraph:
    R = generate("ribbon", seed, size)
    rng = random.Random(seed * 7919 + size)
    return RibbonGraph(R.vertices, [
        make_edge(*e.ends, sign=e.sign, label=e.label,
                  x=_weight(rng, f"x_{e.label}"), y=_weight(rng, f"y_{e.label}"))
        for e in R.edges])


def weighted_rpg(seed, size) -> RelPlaneGraph:
    G = generate("rpg", seed, size)
    rng = random.Random(seed * 7919 + size)
    return RelPlaneGraph(G.map, G.zero, {
        ei: (_weight(rng, f"x_{ei}"), _weight(rng, f"y_{ei}"))
        for ei in G.regular_indices()})


def polynomial_digest() -> str:
    h = hashlib.sha256()

    def put(p):
        h.update(sorted_terms(p).encode())
        h.update(b"\0")

    for seed in range(30):
        for size in range(7):
            R = generate("ribbon", seed, size)
            put(bollobas_riordan(R))
            put(relative_tutte(ribbon_to_plane(R)[0]))
            L = generate("link", seed, size)
            put(kauffman_bracket(L))
            put(jones(L))
            put(relative_tutte(link_to_tait(L)))
            if seed < 10:
                W = weighted_ribbon(seed, size)
                put(bollobas_riordan(W))
                put(relative_tutte(ribbon_to_plane(W)[0]))
                put(relative_tutte(weighted_rpg(seed, size)))
    return h.hexdigest()


def test_polynomials_match_recorded_digest():
    assert polynomial_digest() == POLYNOMIAL_GOLDEN
