"""The benchmark's workloads: seeded inputs, the timed pipeline, output checks.

Each workload turns ``--seed`` into a fixed instance list (``setup``), runs
one instance the way the CLI would, from input text to ``canonical()`` text
(``run``, the only timed code), and checks a result outside the timed region
(``check``).  The library is called only through module attributes such as
``formats.parse_ribbon`` so that the traced run can wrap those functions.

The ribbon and link instances come from pools recorded in ``instances.json``
by ``make_instances.py``: generator seeds whose instances lie in narrow size
bands, so that the cost of a pass does not swing with the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from rgpoly import convert, formats, links, planemap, poly, ribbon, verify

INSTANCES_FILE = Path(__file__).with_name("instances.json")

VERIFY_CHECKS = ("main", "identities", "duality", "bracket")
VERIFY_PER_CHECK = 126      # 18 instances of every size 0..6 per check
VERIFY_MAX_SIZE = 6

# the bracket theorem's specialization of T, as in verify.check_bracket
BRACKET_SUBS = {
    "X": poly.monomial(1, {"A": -1, "B": 1, "d": 1}),
    "Y": poly.monomial(1, {"A": 1, "B": -1, "d": 1}),
    "w": poly.monomial(1, {"A": -1, "B": 1}),
    "x_plus": 1,
    "y_plus": 1,
    "x_minus": poly.monomial(1, {"A": -1, "B": 1}),
    "y_minus": poly.monomial(1, {"A": 1, "B": -1}),
}
# A, B, d of the bracket at t, as in links.jones
JONES_SUBS = {
    "A": poly.monomial(1, {"t": Fraction(-1, 4)}),
    "B": poly.monomial(1, {"t": Fraction(1, 4)}),
    "d": -poly.monomial(1, {"t": Fraction(1, 2)})
         - poly.monomial(1, {"t": Fraction(-1, 2)}),
}


@dataclass
class Instance:
    """One input of a workload: where it came from and its input text."""

    key: str
    size: int
    text: str = ""
    extra: dict = field(default_factory=dict)


# -- helpers shared with make_instances.py ------------------------------


def load_instances() -> dict:
    with open(INSTANCES_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def gauss_code(seed: int, n: int) -> str:
    """The signed Gauss code that ``verify.generate("link", seed, n)`` realizes."""
    rng = random.Random(seed * 1000003 + n)
    tokens = []
    signs = {i: rng.choice("+-") for i in range(1, n + 1)}
    for i in range(1, n + 1):
        tokens.append(f"O{i}{signs[i]}")
        tokens.append(f"U{i}{signs[i]}")
    rng.shuffle(tokens)
    if n >= 3 and rng.random() < 0.4:
        cut = rng.randint(1, len(tokens) - 1)
        words = ["".join(tokens[:cut]), "".join(tokens[cut:])]
    else:
        words = ["".join(tokens)]
    if rng.random() < 0.15:
        words.append("")
    return " | ".join(words)


_SEPARATOR = re.compile(r" ([+-]) ")


def canonical_terms(text: str) -> list[str]:
    """Signed terms of a canonical() text, each with its factors sorted.

    The result does not depend on the order of terms or of factors within a
    term, which today follow variable registration order.
    """
    if text == "0":
        return []
    first = "+"
    if text.startswith("-"):
        first, text = "-", text[1:]
    parts = _SEPARATOR.split(text)
    signed = [(first, parts[0])] + list(zip(parts[1::2], parts[2::2]))
    return sorted(sign + "*".join(sorted(body.split("*"))) for sign, body in signed)


def term_digest(text: str) -> str:
    return hashlib.sha256("\n".join(canonical_terms(text)).encode()).hexdigest()


def _picks(pools: dict, seed: int, smoke: bool) -> list[dict]:
    """Three small instances and one large one from a workload's recorded pools.

    With three small for every large, the median instance is a small one and
    the 90th percentile the large one, in any run of two passes or more.
    """
    small, large = pools["small"], pools["large"]
    picks = [small[(3 * seed + i) % len(small)] for i in range(3)]
    picks.append(large[seed % len(large)])
    return picks[:1] if smoke else picks


def _ribbon_instances(picks: list[dict]) -> list[Instance]:
    out = []
    for p in picks:
        R = verify.generate("ribbon", p["seed"], p["size"])
        out.append(Instance(f"ribbon:{p['seed']}:{p['size']}", p["size"],
                            formats.serialize_ribbon(R)))
    return out


# -- workloads -----------------------------------------------------------


class BrWide:
    name = "br-wide"

    def setup(self, seed: int, smoke: bool, recorded: dict) -> list[Instance]:
        self.digests = recorded["br-wide"]["digests"]
        return _ribbon_instances(_picks(recorded["br-wide"], seed, smoke))

    def run(self, inst: Instance):
        R = formats.parse_ribbon(inst.text)
        return {"B": ribbon.bollobas_riordan(R).canonical()}

    def check(self, inst: Instance, result) -> bool:
        return term_digest(result["B"]) == self.digests.get(inst.key)


def _renders(result, names) -> bool:
    """Each rendered text parses back to the polynomial it came from."""
    return all(poly.parse(result[n + "_text"]) == result[n] for n in names)


class RibbonPlane:
    name = "ribbon-plane"

    def setup(self, seed: int, smoke: bool, recorded: dict) -> list[Instance]:
        return _ribbon_instances(_picks(recorded["ribbon-plane"], seed, smoke))

    def run(self, inst: Instance):
        R = formats.parse_ribbon(inst.text)
        B = ribbon.bollobas_riordan(R)
        G, _cert = convert.ribbon_to_plane(R)
        T = planemap.relative_tutte(G)
        return {"R": R, "G": G, "B": B, "T": T,
                "B_text": B.canonical(), "T_text": T.canonical()}

    def check(self, inst: Instance, result) -> bool:
        """The main theorem, applied to the B and T this instance computed."""
        R, G, B, T = result["R"], result["G"], result["B"], result["T"]
        beta = Fraction(-(R.num_vertices - G.map.num_vertices), 2)
        alpha = G.map.components() - ribbon.components(R, R.all_edges()) - beta
        left = (poly.monomial(1, {"X": alpha, "Y": beta})
                * T.subs(verify.SQRT_XY))
        right = B.subs(verify.INV_SQRT_XY)
        return left == right and _renders(result, ("B", "T"))


class LinkTait:
    name = "link-tait"

    def setup(self, seed: int, smoke: bool, recorded: dict) -> list[Instance]:
        return [Instance(f"link:{p['seed']}:{p['size']}", p["size"],
                         "gauss " + gauss_code(p["seed"], p["size"]) + "\n")
                for p in _picks(recorded["link-tait"], seed, smoke)]

    def run(self, inst: Instance):
        L = formats.parse_vld(inst.text)
        K = links.kauffman_bracket(L)
        J = links.jones(L)
        G = convert.link_to_tait(L)
        T = planemap.relative_tutte(G)
        return {"L": L, "G": G, "K": K, "J": J, "T": T,
                "K_text": K.canonical(), "J_text": J.canonical(),
                "T_text": T.canonical()}

    def check(self, inst: Instance, result) -> bool:
        """The bracket theorem and the Jones normalization, on computed values."""
        L, G, K, J, T = (result[k] for k in ("L", "G", "K", "J", "T"))
        M = G.map
        v, k = M.num_vertices, M.components()
        e_reg = len(G.regular_indices())
        tait = (poly.monomial(1, {"A": v - k, "B": e_reg - v + k, "d": k - 1})
                * T.subs(BRACKET_SUBS))
        w = links.writhe(L)
        normalized = (poly.monomial((-1) ** (w % 2), {"t": Fraction(3 * w, 4)})
                      * K.subs(JONES_SUBS))
        return K == tait and J == normalized and _renders(result, ("K", "J", "T"))


class VerifySmall:
    name = "verify-small"

    def setup(self, seed: int, smoke: bool, recorded: dict) -> list[Instance]:
        # seeded like run_suite (instance seed = seed * 1009 + i); the sizes
        # cycle through 0..6 instead of being drawn, so every pass holds the
        # same mix of sizes whatever the seed
        count = VERIFY_MAX_SIZE + 1 if smoke else VERIFY_PER_CHECK
        return [Instance(f"{check}:{seed * 1009 + i}:{i % (VERIFY_MAX_SIZE + 1)}",
                         i % (VERIFY_MAX_SIZE + 1),
                         extra={"check": check, "inst_seed": seed * 1009 + i})
                for check in VERIFY_CHECKS for i in range(count)]

    def run(self, inst: Instance):
        check = inst.extra["check"]
        seed = inst.extra["inst_seed"]
        rng = random.Random(seed)
        if check == "main":
            report = verify.check_main_theorem(
                verify.generate_ribbon(rng, inst.size), seed=seed)
        elif check == "identities":
            R = verify.generate_ribbon(rng, inst.size)
            G, cert = convert.ribbon_to_plane(R)
            report = verify.check_subset_identities(R, G, cert, seed=seed)
        elif check == "duality":
            report = verify.check_duality(
                verify.generate_rpg(rng, inst.size), seed=seed)
        else:
            report = verify.check_bracket(
                verify.generate_link(rng, inst.size), seed=seed)
        return {"line": report.line(inst.size), "passed": report.passed}

    def check(self, inst: Instance, result) -> bool:
        return result["passed"] and result["line"].startswith("PASS ")


WORKLOADS = {w.name: w for w in (BrWide, RibbonPlane, LinkTait, VerifySmall)}
