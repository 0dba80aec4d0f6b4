import itertools
import random
import subprocess
import sys
from collections import Counter
from math import prod

import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from helpers import (canonical_by_dense_keys, decode_by_fields, state_sum, state_sum_by_products,
                     subs_by_products)
from rgpoly import poly
from rgpoly.convert import link_to_tait, ribbon_to_plane
from rgpoly.errors import NonMonomialNegativePower, ParseError, SizeLimit
from rgpoly.links import JONES_SUBS, _bracket_sum, jones, kauffman_bracket
from rgpoly.planemap import relative_tutte
from rgpoly.poly import ONE, ZERO, Polynomial, class_sum, monomial, parse, swap_vars, var
from rgpoly.ribbon import RibbonGraph, bollobas_riordan, make_edge
from rgpoly.verify import BRACKET_SUBS, INV_SQRT_XY, SQRT_XY, SWAPPED_SQRT_XY, generate

X, Y, Z, A, B, d, w, t = (var(n) for n in "XYZABdwt")


def test_ring_identities():
    assert (X + Y) * (X - Y) == X * X - Y * Y
    p = 3 * X * Y - 2
    assert p + 0 == p
    assert p * 1 == p
    assert p - p == Polynomial.const(0)


def test_half_exponent_product():
    h = monomial(1, {"X": Fraction(1, 2)})
    assert h * h == X


def test_monomial_substitution():
    zz = Z * Z
    got = zz.substitute("Z", monomial(1, {"X": Fraction(-1, 2), "Y": Fraction(-1, 2)}))
    assert got == monomial(1, {"X": -1, "Y": -1})


def test_binomial_square_substitution():
    dd = d * d
    val = -monomial(1, {"t": Fraction(1, 2)}) - monomial(1, {"t": Fraction(-1, 2)})
    got = dd.substitute("d", val)
    assert got == t + 2 + monomial(1, {"t": -1})


def test_jones_substitution_ab():
    got = (A * B).subs({
        "A": monomial(1, {"t": Fraction(-1, 4)}),
        "B": monomial(1, {"t": Fraction(1, 4)}),
    })
    assert got == 1


def test_non_monomial_negative_power_rejected():
    p = monomial(1, {"d": -1})
    with pytest.raises(NonMonomialNegativePower):
        p.substitute("d", t + 1)


def test_non_monomial_fractional_power_rejected():
    p = monomial(1, {"d": Fraction(1, 2)})
    with pytest.raises(NonMonomialNegativePower):
        p.substitute("d", t + 1)


def test_canonical_basics():
    assert Polynomial.const(0).canonical() == "0"
    assert (Y + X).canonical() == "X + Y"
    assert (X * X + 3 * X + Y + 3).canonical() == "X^2 + 3*X + Y + 3"


def test_canonical_weight_symbols_first():
    p = monomial(1, {"X": Fraction(-1, 2), "Y": Fraction(1, 2), "x_e": 1})
    assert p.canonical() == "x_e*X^(-1/2)*Y^(1/2)"


def test_parse_round_trip_examples():
    for text in ["0", "X + Y", "x_e*Y + y_e", "X^2 + 3*X + Y + 3",
                 "y_e + x_e*X^(-1/2)*Y^(1/2)", "-2*t^(3/4) + 5"]:
        p = parse(text)
        assert p.canonical() == text
        assert parse(p.canonical()) == p


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("X +")
    with pytest.raises(ParseError):
        parse("X^(1/3)")
    with pytest.raises(ParseError):
        parse("$")


def test_zero_denominator_exponent_is_a_parse_error():
    with pytest.raises(ParseError):
        parse("x^(1/0)")


def test_parse_adds_terms_in_place():
    assert parse("X^0 + 1 - X + X") == 2
    assert poly.ONE == 1    # X^0 parses to the shared ONE, which must stay 1
    p = parse(" + ".join(f"{i + 1}*X^{i}" for i in range(500)))
    assert p.subs({"X": 1}) == sum(range(1, 501)) and parse(p.canonical()) == p


def test_rejected_text_registers_no_name():
    before = list(poly._names)
    with pytest.raises(ParseError):
        parse("fresh_a*fresh_b +")
    assert poly._names == before


def test_accepted_text_registers_names_of_nonzero_exponents_in_order():
    before = len(poly._names)
    p = parse("0*fresh_p + fresh_q^2*fresh_q^-2 + fresh_r")
    assert poly._names[before:] == ["fresh_p", "fresh_q", "fresh_r"]
    assert p == 1 + var("fresh_r")


_fresh = itertools.count()


@settings(max_examples=100, deadline=None)
@given(st.permutations(range(4)),
       st.lists(st.tuples(st.integers(-5, 5),
                          st.lists(st.tuples(st.integers(0, 5), st.integers(-8, 8)),
                                   max_size=4)),
                max_size=4))
def test_parse_round_trip_under_shuffled_registration(order, monomials):
    tag = next(_fresh)
    names = [f"shuffled{tag}_{i}" for i in range(4)] + ["X", "d"]
    for i in order:
        poly.register(names[i])
    p = Polynomial.const(0)
    for coeff, powers in monomials:
        p = p + monomial(coeff, {names[i]: Fraction(e4, 4) for i, e4 in powers})
    assert parse(p.canonical()) == p


_RENDER = """
import sys
from rgpoly import poly
from rgpoly.ribbon import bollobas_riordan
from rgpoly.verify import generate
if sys.argv[1] == "crowded":
    for i in range(5000):
        poly.register(f"unrelated_{i}")
print(bollobas_riordan(generate("ribbon", 5, 6)).canonical())
"""


def test_canonical_ignores_unrelated_registered_names():
    def render(mode):
        return subprocess.run([sys.executable, "-c", _RENDER, mode],
                              capture_output=True, check=True).stdout
    assert render("crowded") == render("fresh")


def test_swap_vars():
    p = X * X * Y + 2 * X
    assert swap_vars(p, "X", "Y") == Y * Y * X + 2 * Y


def test_hash_agrees_with_equality_on_ints():
    assert len({Polynomial.const(3), 3}) == 1
    assert len({Polynomial.const(0), 0}) == 1
    assert Polynomial.const(-2) in {-2}
    assert hash(X + 1) == hash(1 + X)


def test_pow_negative_monomial():
    m = monomial(1, {"X": 1})
    assert m ** -2 == monomial(1, {"X": -2})
    with pytest.raises(NonMonomialNegativePower):
        (X + Y) ** -1


# -- randomized properties -------------------------------------------

_vars = ["X", "Y", "Z", "A", "B", "d", "w", "t", "x_h1", "y_h1"]


@st.composite
def polynomials(draw, max_terms=4):
    nterms = draw(st.integers(0, max_terms))
    p = Polynomial.const(0)
    for _ in range(nterms):
        coeff = draw(st.integers(-5, 5))
        powers = {}
        for name in draw(st.lists(st.sampled_from(_vars), max_size=3, unique=True)):
            powers[name] = Fraction(draw(st.integers(-8, 8)), draw(st.sampled_from([1, 2, 4])))
        p = p + monomial(coeff, powers)
    return p


@settings(max_examples=150, deadline=None)
@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    for value in (p + q, p * q, p - q):
        value.check_invariants()


@settings(max_examples=100, deadline=None)
@given(polynomials(), polynomials(), polynomials(max_terms=2))
def test_substitution_is_homomorphic(p, q, r):
    # keep the precondition: nonnegative integer powers of d only
    no_d = monomial(1, {"t": 1})
    p = p.subs({"d": no_d}) + d * d * q.subs({"d": no_d})
    q = q.subs({"d": no_d})
    left = (p * q).substitute("d", r)
    right = p.substitute("d", r) * q.substitute("d", r)
    assert left == right
    left.check_invariants()


@st.composite
def replacements(draw):
    # up to three variables, each replaced by an int, a single term with
    # quarter or negative exponents, or a multi-term polynomial
    names = draw(st.lists(st.sampled_from(_vars), max_size=3, unique=True))
    return {name: draw(st.one_of(st.integers(-2, 2), polynomials(max_terms=1),
                                 polynomials(max_terms=3)))
            for name in names}


@settings(max_examples=300, deadline=None)
@given(polynomials(), replacements())
def test_subs_matches_products_oracle(p, mapping):
    try:
        expected = subs_by_products(p, mapping)
    except NonMonomialNegativePower as error:
        with pytest.raises(NonMonomialNegativePower) as raised:
            p.subs(mapping)
        assert str(raised.value) == str(error)
        return
    got = p.subs(mapping)
    assert got == expected and got.canonical() == expected.canonical()
    got.check_invariants()


@settings(max_examples=100, deadline=None)
@given(polynomials())
def test_parse_canonical_round_trip(p):
    assert parse(p.canonical()) == p


# -- the packed state-sum accumulator ----------------------------------

_NAMES = [("X", "Y", "Z"), ("X", "Y", "d", "w"), ("d",)]
_TOO_MANY = "{n} elements exceeds the cap {cap}"


def _weight(rng, i):
    """Monomials, multi-term, zero, non-unit and negative coefficients,
    quarter, negative and 10^30 exponents, and the builtins themselves."""
    v = var(f"x_s{i}")
    return rng.choice([
        v, -v, 3 * v, 1 + t, ZERO, Polynomial.const(-2),
        monomial(5, {f"x_s{i}": Fraction(-3, 4), "t": Fraction(1, 2)}),
        Y, monomial(1, {"Z": -1}), d, d - 2 * X * Y + 1,
        monomial(-1, {"t": 10 ** 30}), v * monomial(7, {"y_s": -(10 ** 30)}),
    ])


def _term(rng, names, bound, n):
    """Seeded exponents in [-bound, bound]: all -bound at mask 0 and all
    +bound at the full mask, so the builtins' fields reach both ends."""
    full = (1 << n) - 1
    table = [tuple(rng.randint(-bound, bound) for _ in names) for _ in range(full + 1)]
    table[0] = (-bound,) * len(names)
    table[full] = (bound,) * len(names)
    return table.__getitem__


def _both(weights, names, bound, term):
    got = state_sum(weights, names, bound, term, 24, _TOO_MANY)
    want = state_sum_by_products(weights, names, bound, term, 24, _TOO_MANY)
    got.check_invariants()
    return got, want


def test_state_sum_matches_products_oracle():
    for seed in range(40):
        rng = random.Random(seed)
        for n in range(7):
            names = _NAMES[(seed + n) % len(_NAMES)]
            bound = rng.randint(0, 5)
            weights = [(_weight(rng, i), _weight(rng, i)) for i in range(n)]
            got, want = _both(weights, names, bound, _term(rng, names, bound, n))
            assert got == want, (seed, n, weights)


def test_state_sum_fields_hold_extreme_exponents():
    # the full mask takes every element's largest exponents, mask 0 the
    # most negative ones, and the term adds +-bound there: each field's
    # value reaches both ends of its range
    big = 10 ** 30
    for names in _NAMES:
        for n in range(6):
            weights = [(monomial(1, {"Y": 1, "d": Fraction(1, 4), "t": big + i}),
                        monomial(-3, {"Y": -1, "d": Fraction(-1, 4), "t": -big - i}))
                       for i in range(n)]
            for bound in (0, 1, 3, 2 ** 40):
                rng = random.Random(bound + n)
                got, want = _both(weights, names, bound, _term(rng, names, bound, n))
                assert got == want, (names, n, bound)


def test_class_sum_matches_products_oracle():
    # the elements of class i are n_i consecutive bits of the oracle's mask,
    # all weighing (x_i, y_i); class_sum gets the states grouped by
    # (index, exponents) and shuffled.  No class at all is the bracket's
    # shape (the oracle's weights all 1), one-element classes B_R's.
    for seed in range(30):
        rng = random.Random(seed)
        for shape in ("none", "ones", "mixed"):
            if shape == "none":
                sizes, n = [], rng.randint(0, 6)
            else:
                sizes = [rng.choice((1,) if shape == "ones" else (1, 2, 5))
                         for _ in range(rng.randint(0, 4))]
                while sum(sizes) > 9:
                    sizes.pop()
                n = sum(sizes)
            names = _NAMES[(seed + n) % len(_NAMES)]
            bound = rng.randint(0, 5)
            classes = [(_weight(rng, i), _weight(rng, i), size) for i, size in enumerate(sizes)]
            weights = [(x, y) for x, y, size in classes for _ in range(size)] or [(1, 1)] * n
            term = _term(rng, names, bound, n)
            grouped = Counter()
            for mask in range(1 << n):
                index, place, low = 0, 1, 0
                for size in sizes:
                    index += place * (mask >> low & ((1 << size) - 1)).bit_count()
                    place, low = place * (size + 1), low + size
                grouped[index, term(mask)] += 1
            terms = [(index, exps, count) for (index, exps), count in grouped.items()]
            rng.shuffle(terms)
            got = class_sum(classes, names, bound, terms)
            want = state_sum_by_products(weights, names, bound, term, 24, _TOO_MANY)
            got.check_invariants()
            assert got == want and got.canonical() == want.canonical(), (seed, shape)


def test_class_sum_bounds_its_weight_tables_before_building_any(monkeypatch):
    # with the limit at 8, seven one-element classes split 3 | 4 need 8 and
    # 16 entries, one class of 8 elements needs 9; B_R on 7 disjoint edges
    # has the first shape
    monkeypatch.setattr(poly, "_WEIGHT_TABLE_ENTRIES", 8)
    built = []
    table = poly._table
    monkeypatch.setattr(poly, "_table", lambda *args: built.append(args) or table(*args))

    def terms():
        raise AssertionError("no term may be read past the limit")
        yield

    weights = [(var(f"x_tb{i}"), var(f"y_tb{i}"), 1) for i in range(7)]
    R = RibbonGraph([(f"a{i}",) for i in range(7)] + [(f"b{i}",) for i in range(7)],
                    [make_edge(f"a{i}", f"b{i}") for i in range(7)])
    for run, entries in [(lambda: class_sum(weights, ("X",), 1, terms()), 16),
                         (lambda: class_sum([(X, Y, 8)], ("X",), 1, terms()), 9),
                         (lambda: bollobas_riordan(R), 16)]:
        with pytest.raises(SizeLimit, match=f"^a weight table of {entries} entries exceeds 8$"):
            run()
        assert built == []
    assert class_sum(weights[:6], ("X",), 0, [(63, (0,), 1)]) == prod(x for x, _, _ in weights[:6])
    assert class_sum([(X, Y, 7)], (), 0, [(7, (), 1)]) == X ** 7
    assert len(built) == 4


def test_state_sum_cap_is_checked_before_any_table():
    def term(mask):
        raise AssertionError("no state may run past the cap")

    with pytest.raises(SizeLimit, match="25 elements exceeds the cap 24"):
        state_sum([(None, None)] * 25, ("X",), 0, term, 24, _TOO_MANY)


# -- canonical text against the earlier dense-key order ----------------
#
# The golden polynomial digest sorts terms, so only the CLI digests pin the
# order of canonical text; these compare it with the earlier renderer.


def test_canonical_matches_dense_key_oracle_on_seeded_sums():
    # the packed sums, Jones among them, and, through the same renderer,
    # decoded values: each sum's decoded copy, the main theorem's two sides
    # after their substitutions, a product, the weights, 0, a constant, and
    # negative and quarter exponents in a term that mixes a registered name
    # with builtins
    cube = var("x_e0") ** 3 + 7
    mixed = monomial(-2, {"x_mix": Fraction(-3, 4), "X": Fraction(1, 2), "t": -1}) + d
    cases = [(seed, size) for seed in range(40) for size in range(8)]
    cases += [(seed, size) for seed in range(2) for size in range(8, 13)]
    for seed, size in cases:
        R = generate("ribbon", seed, size)
        L = generate("link", seed, size)
        br, rt = bollobas_riordan(R), relative_tutte(ribbon_to_plane(R)[0])
        right = br.subs(INV_SQRT_XY)
        decoded = [rt.subs(SQRT_XY), right, right * cube, ZERO,
                   Polynomial.const(seed - 20), mixed, *(w for e in R.edges for w in (e.x, e.y))]
        for p in (br, rt, kauffman_bracket(L), jones(L), *decoded):
            text = p.canonical()
            assert Polynomial(dict(p._terms)).canonical() == text, (seed, size)
            assert text == canonical_by_dense_keys(p), (seed, size)
        assert all(p._packed is None for p in decoded), (seed, size)


_BIG = 10 ** 30
_EXP4 = st.one_of(st.integers(-12, 12),
                  st.sampled_from([4 * _BIG, -4 * _BIG, 4 * _BIG + 1, -4 * _BIG - 2]))
_COEFF = st.one_of(st.sampled_from([1, -1]), st.integers(-9, 9),
                   st.integers(-(10 ** 20), 10 ** 20))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.permutations(range(4)),
       st.lists(st.tuples(_COEFF, st.lists(st.tuples(st.integers(0, 11), _EXP4),
                                           max_size=5)),
                max_size=8))
def test_canonical_matches_dense_key_oracle(order, monomials):
    # fresh names registered in shuffled order, so registry-id order is not
    # name order, interleaved with the builtins; a monomial with no factors
    # is a bare constant
    tag = next(_fresh)
    names = [f"dense{tag}_{i}" for i in range(4)]
    for i in order:
        poly.register(names[i])
    names += list("XYZABdwt")
    p = Polynomial.const(0)
    for coeff, powers in monomials:
        p = p + monomial(coeff, {names[i]: Fraction(e4, 4) for i, e4 in powers})
    assert p.canonical() == canonical_by_dense_keys(p)
    assert p._packed is None


# -- packed polynomials: text from the packed keys, decode on first use ----
#
# ``class_sum`` returns a polynomial that keeps its packed keys: canonical()
# writes them by field groups, and the (vid, exp4) terms are decoded only
# when first read.

_PACKED_EXP4 = st.one_of(st.integers(-9, 9),
                         st.sampled_from([4 * _BIG, -4 * _BIG - 1, 2]))


@st.composite
def class_sums(draw):
    """``class_sum`` inputs on up to 12 fresh names and the builtins:
    multi-term and constant weights, quarter, negative and 10^30
    exponents, and terms whose counts may cancel, or no term at all."""
    tag = next(_fresh)
    pool = [f"packed{tag}_{i}" for i in range(12)] + list("XYZABdwt")

    def weight(i):
        # multi-term weights on the first two classes only, which keeps
        # the expanded sums small
        p = ZERO
        for _ in range(draw(st.integers(1, 2)) if i < 2 else 1):
            coeff = draw(st.sampled_from([1, -1, 2, -3]))
            powers = draw(st.lists(st.tuples(st.sampled_from(pool), _PACKED_EXP4), max_size=3))
            p = p + monomial(coeff, {n: Fraction(e4, 4) for n, e4 in powers})
        return p

    classes = [(weight(i), weight(i), draw(st.integers(1, 3)))
               for i in range(draw(st.integers(0, 12)))]
    names = tuple(draw(st.lists(st.sampled_from(pool), unique=True, max_size=4)))
    bound = draw(st.integers(0, 3))
    radix = 1
    for _, _, n in classes:
        radix *= n + 1
    terms = draw(st.lists(st.tuples(st.integers(0, radix - 1),
                                    st.tuples(*[st.integers(-bound, bound)] * len(names)),
                                    st.sampled_from([1, -1, 2, -3])), max_size=12))
    # some terms again, negated, to cancel: all of them leaves 0
    terms += [(index, exps, -count)
              for index, exps, count in terms[:draw(st.integers(0, len(terms)))]]
    return classes, names, bound, terms


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(class_sums())
def test_packed_canonical_matches_decoded_text(args):
    p = class_sum(*args)
    text = p.canonical()
    assert text == canonical_by_dense_keys(p)      # decodes p
    assert p.canonical() == text
    assert Polynomial(dict(p._terms)).canonical() == text
    assert parse(text).canonical() == text
    p.check_invariants()


def test_packed_canonical_of_empty_cancelled_and_constant_sums():
    x, y = var("x_pk"), var("y_pk")
    assert class_sum([], ("X",), 2, []).canonical() == "0"
    assert class_sum([(x, y, 1)], ("X",), 1, [(0, (1,), 2), (0, (1,), -2)]).canonical() == "0"
    assert class_sum([], ("X", "Y"), 1, [(0, (0, 0), -7)]).canonical() == "-7"
    assert class_sum([(ONE, ONE, 2)], ("d",), 0, [(1, (0,), 3)]).canonical() == "3"


def test_packed_polynomial_decodes_on_first_use():
    # each operation gets a fresh packed polynomial, so it is the first read
    rng = random.Random(17)
    other = X * Y - 2 * var("x_s1") + 3
    sub = {"X": monomial(1, {"Y": Fraction(1, 2), "t": -1}), "x_s0": t * Y}
    ops = [lambda p: p == eager, lambda p: eager == p, hash,
           lambda p: p.subs(sub), lambda p: p + other, lambda p: other + p,
           lambda p: p * other, lambda p: p.variables(), lambda p: p.is_zero(),
           lambda p: p.check_invariants()]
    for trial in range(60):
        names = _NAMES[trial % len(_NAMES)]
        bound = rng.randint(0, 3)
        classes = [(_weight(rng, i), _weight(rng, i), rng.randint(1, 2))
                   for i in range(rng.randint(0, 5))]
        radix = 1
        for _, _, n in classes:
            radix *= n + 1
        terms = [(rng.randrange(radix), tuple(rng.randint(-bound, bound) for _ in names),
                  rng.randint(-2, 2)) for _ in range(rng.randint(0, 20))]
        fields, acc = class_sum(classes, names, bound, terms)._packed
        eager = Polynomial({decode_by_fields(fields, key): c for key, c in acc.items()})
        for op in ops:
            p = class_sum(classes, names, bound, terms)
            assert type(p) is Polynomial and p._packed is not None
            assert op(p) == op(eager), trial
        p = class_sum(classes, names, bound, terms)
        before = p.canonical()
        p.check_invariants()
        assert p.canonical() == before == eager.canonical(), trial


def test_state_sums_return_exactly_polynomial():
    R = generate("ribbon", 5, 6)
    L = generate("link", 5, 6)
    for p in (bollobas_riordan(R), relative_tutte(ribbon_to_plane(R)[0]),
              kauffman_bracket(L), jones(L)):
        assert type(p) is Polynomial and p._packed is not None


# -- substitution inside the accumulator --------------------------------
#
# ``subs=`` substitutes while the terms are summed; the value, its text and
# any error must be those of the sum without it followed by ``.subs``.


def assert_subs_inside_matches_after(total, mapping, case):
    """``total(mapping)`` equals ``total(None).subs(mapping)`` byte for
    byte, or both raise NonMonomialNegativePower."""
    try:
        want = total(None).subs(mapping)
    except NonMonomialNegativePower:
        with pytest.raises(NonMonomialNegativePower):
            total(mapping)
        return
    got = total(mapping)
    assert got.canonical() == want.canonical() and got == want, case


def test_subs_inside_the_sums_matches_subs_after():
    half = Fraction(1, 2)
    swap = {"X": Y, "Y": X}
    negated = {"Y": -monomial(1, {"t": half}), "d": -A, "A": -t}
    scaled = {"X": 2 * Y, "d": -3 * t}
    shifted = {"X": X + 1, "d": d - t}
    # unit images that hold names whose images are tabled
    crossed = {"X": Y + 1, "Y": X, "Z": Y, "d": A - t, "A": d, "w": d}
    maps = [SQRT_XY, INV_SQRT_XY, SWAPPED_SQRT_XY, BRACKET_SUBS, JONES_SUBS,
            swap, negated, scaled, shifted, crossed]
    for seed in range(3):
        for m in range(11):
            R, L = generate("ribbon", seed, m), generate("link", seed, m)
            G = generate("rpg", seed, m)      # its weights are x_e<i>, y_e<i>, as R's
            ones = {f"{v}_{e.label}": 1 for e in R.edges for v in "xy"}
            tait_ones = {"x_minus": 1, "y_minus": Z}
            sums = [lambda s: bollobas_riordan(R, subs=s), lambda s: relative_tutte(G, subs=s),
                    lambda s: _bracket_sum(L, 20, s, None)]
            for total in sums:
                for mapping in maps + [ones, tait_ones, {**ones, **swap}]:
                    assert_subs_inside_matches_after(total, mapping, (seed, m))
            tait = link_to_tait(L)
            for mapping in (BRACKET_SUBS, tait_ones, scaled, shifted, crossed):
                assert_subs_inside_matches_after(
                    lambda s: relative_tutte(tait, subs=s), mapping, (seed, m))


def test_subs_inside_the_accumulator_raises_where_subs_raises():
    # a weight x_frac^(1/2) into a fractional power of a multi-term image,
    # of a -1 and of a non-unit coefficient; X^-1 into a negative power of
    # a multi-term image and of a non-unit coefficient
    q = var("x_frac")
    edge = make_edge("a", "b", x=monomial(1, {"x_frac": Fraction(1, 2)}), y=ONE)
    R = RibbonGraph([("a", "b")], [edge])
    fractional = [{"x_frac": q + 1}, {"x_frac": -q}, {"x_frac": 2 * q}]
    negative = [{"X": X + Y}, {"X": 3 * Y}, {"X": ZERO}]
    for total, maps in [(lambda s: bollobas_riordan(R, subs=s), fractional),
                        (lambda s: class_sum([(edge.x, edge.y, 1)], ("X",), 1,
                                             [(0, (-1,), 1), (1, (0,), 2)], s),
                         fractional + negative)]:
        for mapping in maps:
            with pytest.raises(NonMonomialNegativePower):
                total(None).subs(mapping)
            with pytest.raises(NonMonomialNegativePower):
                total(mapping)
    # A*d^-1 - B*d^-1 cancel once A and B are t, but not in the sum that
    # ``subs`` takes
    collide = [(0, (1, 0, -1), 1), (0, (0, 1, -1), -1), (0, (1, 1, 1), 1)]
    mapping = {"A": t, "B": t, "d": -t - 1}
    with pytest.raises(NonMonomialNegativePower):
        class_sum([], ("A", "B", "d"), 1, collide).subs(mapping)
    with pytest.raises(NonMonomialNegativePower):
        class_sum([], ("A", "B", "d"), 1, iter(collide), mapping)
    # the empty diagram's bracket is d^-1, which Jones' d cannot go into
    L = generate("link", 0, 0)
    empty = type(L)(L.map, {}, {}, {}, free_loops=0)
    with pytest.raises(NonMonomialNegativePower):
        kauffman_bracket(empty).subs(JONES_SUBS)
    for run in (lambda: _bracket_sum(empty, 0, JONES_SUBS, None), lambda: jones(empty)):
        with pytest.raises(NonMonomialNegativePower):
            run()


def test_subs_inside_the_accumulator_sees_only_the_summed_terms():
    # terms that cancel, and a weight no term chooses, hold powers that
    # the images cannot go into; the sum without them can take ``subs``
    q = var("x_gone")
    cases = [([], ("X",), [(0, (-1,), 1), (0, (-1,), -1), (0, (2,), 1)], {"X": X + 1}),
             ([], ("X", "d"), [(0, (-2, 1), 3), (0, (-2, 1), -3), (0, (1, 1), 1)],
              {"X": 2 * Y, "d": Y}),
             ([(q ** -1, ONE, 1)], ("X",), [(0, (1,), 1)], {"x_gone": q + 1}),
             ([(q ** -1, q, 1)], ("X",), [(0, (1,), 2), (1, (1,), -2), (1, (1,), 2)],
              {"X": X + 1, "x_gone": 2}),
             ([(X, ONE, 1)], ("X", "d"), [(1, (-1, 1), 1), (0, (0, -1), 5), (0, (0, -1), -5)],
              {"X": X + Y, "d": -3 * t})]
    for classes, names, terms, mapping in cases:
        want = class_sum(classes, names, 2, terms).subs(mapping)
        got = class_sum(classes, names, 2, iter(terms), mapping)
        assert got.canonical() == want.canonical() and got == want


def test_subs_inside_the_accumulator_registers_as_subs_does():
    # every name of the map is registered, in the map's order, even when
    # it never occurs
    R = generate("ribbon", 4, 3)
    names = [f"reg_order_{i}" for i in (3, 1, 2)]
    bollobas_riordan(R, subs={names[0]: 1, "Z": X, names[1]: t, names[2]: X + 1})
    assert [poly._ids[n] for n in names] == sorted(poly._ids[n] for n in names)

