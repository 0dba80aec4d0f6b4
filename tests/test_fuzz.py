"""Parser fuzzing: arbitrary text raises nothing but ``RgpolyError``, and
canonical text parses back to the polynomial it came from.

Each parser gets a few hundred derandomized examples, drawn both from
arbitrary characters and from lines of the file grammars, so that many inputs
get past the line parser and reach the validation of the maps.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from rgpoly import poly
from rgpoly.errors import RgpolyError
from rgpoly.formats import parse_ribbon, parse_rpg, parse_vld

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
