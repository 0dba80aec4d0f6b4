"""Parser fuzzing: arbitrary text raises nothing but ``RgpolyError``,
canonical text parses back to the polynomial it came from, and ``poly.parse``
agrees with the earlier token reader ``helpers.parse_by_tokens``.

Each parser gets a few hundred derandomized examples, drawn both from
arbitrary characters and from lines of the file grammars, so that many inputs
get past the line parser and reach the validation of the maps.  ``parse_vld``
agrees with the earlier token reader ``helpers.parse_vld_by_tokens``, except
that it rejects orient lines that disagree on a strand, where the token reader
let the last flag along the strand win.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from helpers import parse_by_tokens, parse_vld_by_tokens
from rgpoly import poly
from rgpoly.errors import ParseError, RgpolyError
from rgpoly.formats import parse_ribbon, parse_rpg, parse_vld, serialize_vld
from rgpoly.verify import generate

_HEADS = [
    "vertex v0:", "vertex v1:", "edge e:", "edge f:", "crossing c0:",
    "crossing c1:", "arc p:", "arc q:", "orient p:", "gauss", "vertex", "#",
]
_BODY = [
    "a", "b", "c", "d", "c0.a", "c0.b", "c1.c", "c1.d", "sign=+", "sign=-",
    "sign=?", "kind=zero", "kind=regular", "kind=classical", "kind=virtual",
    "x=x^(1/0)", "y=X^(1/3)", "x=-2*y_e^-1", "x=", "ends=a", "over=a,c",
    "over=b", "+", "-", "O1+U1+", "O1-U2-O2-U1-", "O1+O1+", "|", ":",
]
_EXPR_WORDS = [
    "X", "x_e", "d", "1", "0", "12", "+", "-", "*", "^", "(", ")", "/",
    "^(1/0)", "^(-3/4)", "^-2", " ",
]

_LINES = st.tuples(st.sampled_from(_HEADS),
                   st.lists(st.sampled_from(_BODY), max_size=6)).map(
    lambda t: " ".join([t[0], *t[1]]))
_FILES = st.one_of(st.text(max_size=40), st.lists(_LINES, max_size=6).map("\n".join))
_EXPRS = st.one_of(st.text(max_size=40),
                   st.lists(st.sampled_from(_EXPR_WORDS), max_size=20).map("".join))


def _only_rgpoly_errors(parse, text):
    try:
        parse(text)
    except RgpolyError:
        pass


_FUZZ = settings(max_examples=300, derandomize=True, deadline=None,
                 database=None)


@_FUZZ
@given(_FILES)
def test_parse_ribbon_raises_only_rgpoly_errors(text):
    _only_rgpoly_errors(parse_ribbon, text)


@_FUZZ
@given(_FILES)
def test_parse_rpg_raises_only_rgpoly_errors(text):
    _only_rgpoly_errors(parse_rpg, text)


@_FUZZ
@given(_FILES)
def test_parse_vld_raises_only_rgpoly_errors(text):
    _only_rgpoly_errors(parse_vld, text)


@_FUZZ
@given(_EXPRS)
def test_poly_parse_raises_only_rgpoly_errors(text):
    _only_rgpoly_errors(poly.parse, text)


def _read(parse, text):
    """("ok", value) or ("error", None); any other exception propagates."""
    try:
        return "ok", parse(text)
    except ParseError:
        return "error", None


@_FUZZ
@given(_EXPRS)
def test_poly_parse_matches_token_parser(text):
    assert _read(poly.parse, text) == _read(parse_by_tokens, text)


_ALPHABET = "xX_yd0123456789 \t+-*^()/"
# factors, some malformed, and what may join them
_FACTORS = ["X", "x_e", "d", "y_1", "0", "1", "12", "x_e^2", "t^-3", "X^0",
            "d^(1/2)", "t^(-3/4)", "t^(6/8)", "Y ^ ( - 1 / 2 )", "w^(0/5)",
            "w^(1/3)", "x^(1/0)", "Y^(0/0)", "2x", "X^", "x^+1", "(X)"]
_JOINS = ["*", " * ", "+", "-", " + ", " - ", "+-", "- -", "", " ", "^", "**"]


def test_poly_parse_matches_token_parser_on_seeded_strings():
    """Random strings over the grammar's alphabet, and random joins of its
    factors: the two readers accept the same strings, to equal values."""
    rng = random.Random(2024)
    accepted = 0
    for i in range(4000):
        if i % 2:
            text = "".join(rng.choices(_ALPHABET, k=rng.randint(0, 16)))
        else:
            pieces = [rng.choice(["", "-", " + "])]
            for _ in range(rng.randint(1, 6)):
                # the first six joins, which can be well formed, weigh more
                pieces += [rng.choice(_FACTORS), rng.choice(_JOINS[:6] * 3 + _JOINS)]
            text = "".join(pieces[:-1])
        got = _read(poly.parse, text)
        assert got == _read(parse_by_tokens, text), text
        accepted += got[0] == "ok"
    assert accepted >= 600


_NAMES = ["X", "Y", "Z", "A", "B", "d", "w", "t", "x_e", "y_e", "x_12",
          "x_minus", "x_q0_3", "y_long_label"]
_MONOMIALS = st.tuples(
    st.one_of(st.integers(-9, 9), st.integers(-10 ** 30, 10 ** 30)),
    st.dictionaries(st.sampled_from(_NAMES),
                    st.integers(-24, 24).map(lambda e4: Fraction(e4, 4)),
                    max_size=4))


@_FUZZ
@given(st.lists(_MONOMIALS, max_size=6))
def test_canonical_text_parses_back(monomials):
    p = poly.Polynomial.const(0)
    for coeff, powers in monomials:
        p = p + poly.monomial(coeff, powers)
    assert poly.parse(p.canonical()) == p


def _vld(parse, text):
    """The diagram's rotations, arcs, kinds, over pairs, orientations and
    free loops, or the name of the error it was rejected with."""
    try:
        L = parse(text)
    except RgpolyError as exc:
        return type(exc).__name__
    return (L.map.vertices, [(e.ends, e.label) for e in L.map.edges], L.kinds,
            L.over, L.orientations, L.free_loops)


def _conflicting(text, L) -> bool:
    """Whether an orient line of ``text`` disagrees with the orientation that
    the token reader, where the last flag on a strand wins, gave its arc."""
    first_end = {e.label: e.ends[0] for e in L.map.edges}
    for line in text.splitlines():
        head, _, flag = line.split("#", 1)[0].partition(":")
        kind_name = head.split()
        if kind_name[:1] == ["orient"] and \
                L.orientations[first_end[kind_name[1]]] != (flag.strip() == "+"):
            return True
    return False


def _agree(text):
    """``_vld`` of ``text`` by ``parse_vld``, checked against the token reader:
    equal, except that a file whose orient lines disagree on a strand, which
    the token reader accepts, raises ParseError (then "conflict" is returned)."""
    got, want = _vld(parse_vld, text), _vld(parse_vld_by_tokens, text)
    if not isinstance(want, str) and _conflicting(text, parse_vld_by_tokens(text)):
        assert got == "ParseError", text
        return "conflict"
    assert got == want, text
    return got


@_FUZZ
@given(_FILES)
def test_parse_vld_matches_token_reader(text):
    _agree(text)


def test_parse_vld_matches_token_reader_on_generated_and_mutated_links():
    """The text of generated links, and of seeded mutations of it (tokens
    dropped, inserted, swapped or replaced, lines dropped or repeated, orient
    lines added): the two readers accept the same files, to equal diagrams,
    but for orient lines that disagree on a strand."""
    rng = random.Random(2025)
    texts = [serialize_vld(L) for L in (generate("link", seed, size)
                                        for seed in range(20) for size in range(4))
             if not L.free_loops]
    vocabulary = [tok for text in texts[:6] for tok in text.split()] + _BODY
    accepted = conflicts = 0
    for i in range(1500):
        lines = [line.split() for line in rng.choice(texts).splitlines()]
        arcs = [line[1] for line in lines if line[0] == "arc"]
        for _ in range(i % 4):
            line = rng.choice(lines)
            j = rng.randrange(len(line))
            op = rng.randrange(7)
            if op == 0 and len(line) > 1:
                del line[j]
            elif op == 1:
                line.insert(rng.randrange(len(line) + 1), rng.choice(vocabulary))
            elif op == 2:
                k = rng.randrange(len(line))
                line[j], line[k] = line[k], line[j]
            elif op == 3:
                line[j] = rng.choice(vocabulary)
            elif op == 4:
                lines.remove(line)
            elif op == 5 and arcs:      # often a second orient line on a strand
                lines.append(["orient", rng.choice(arcs), rng.choice("+-")])
            else:
                lines.insert(rng.randrange(len(lines) + 1), list(line))
            if not lines:
                break
        text = "\n".join(" ".join(line) for line in lines)
        got = _agree(text)
        accepted += not isinstance(got, str)
        conflicts += got == "conflict"
    assert accepted >= 300 and conflicts >= 30, (accepted, conflicts)
