"""Exact multivariate Laurent polynomials with quarter-integer exponents.

Coefficients are arbitrary-precision integers and exponents are stored as
integers scaled by 4, so every operation is exact.  Quarter denominators
cover all substitutions used by the graph polynomials and the bracket:
d = sqrt(X*Y), w = sqrt(X/Y), Z = 1/sqrt(X*Y), A = t^(-1/4), B = t^(1/4).

Variables live in a process-wide registry with a fixed total order
(registration order).  The symbols X, Y, Z, A, B, d, w, t are built in;
per-edge weight symbols such as ``x_e`` are registered on demand.

``canonical()`` writes and ``parse`` reads a text form: terms joined by +
and -, each a run of signs and then factors joined by *, each a number or
a name with an optional ^n or ^(p/q), p/q a quarter-integer.  Terms come in
descending lexicographic order of their exponent vectors, the variables
taken in registry-id order; within a term the registered names come before
the builtins, each group in registry-id order.  ``canonical()`` sorts by one
int per term, whose bit fields are laid out so that comparing the ints
compares the exponent vectors.

``class_sum`` is the one term accumulator behind the three state sums:
it weights states grouped into weight classes, and no state builds a
``Polynomial``.  A term is (index, exponents, count): the index gives the
number of chosen elements per class, mixed-radix, and the count how many
states share it.  B_R feeds it ``util.sweep``'s records, one element per
class, so a mask is its own index; the other two sums feed it those or,
where ``util.tally`` picks it, ``util.census``'s counts by set bits per
(x, y) class.  The Kauffman bracket keeps A and B as term variables and
passes no class at all.  Inside it
a monomial is one int: each variable of the weights and of the term owns
a bit field of its exponent vector, holding exp4 plus a bias, so negative exponents pack too
(Kronecker substitution).  A field's bias is the largest |exp4| the
variable can reach, summed over the elements from the weights and bounded
for the term by the caller; the field is wide enough for twice the bias,
so adding packed ints multiplies monomials and no sum carries into the
next field.  The weight products of the low and high halves of the classes
are tabulated once as lists of (packed int, coefficient), a multi-term
weight being a longer list on the same path; a term adds its exponents to
one entry of each and accumulates one int key in place.  A table past
``_WEIGHT_TABLE_ENTRIES`` entries raises SizeLimit before any entry is built.

The sum keeps its packed keys.  The lowest id owns the highest bits
(``_layout``) and every field is nonnegative, so the keys in descending
order are the terms in canonical order: ``canonical()`` sorts the ints and
writes each term from memos of its field groups' text, the registered
names' groups apart from the builtins'.  Its sorted (vid, exp4) keys are
decoded only when something first reads them (equality, hashing,
arithmetic, ``subs``), through memos of the groups' pairs.  A group is up
to eight fields read at once, so a B_R with one x_e and y_e field per edge
looks up a few groups per key instead of every field.  Every other
``Polynomial`` holds (vid, exp4) keys, and ``canonical()`` packs them into
fields of their own only to write them, by the same path: one renderer
decides the text of every polynomial.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from math import prod
from operator import and_, itemgetter, mul, rshift
from typing import Iterable, Mapping, Union

from .errors import NonMonomialNegativePower, ParseError, RenderError, SizeLimit

_BUILTINS = ("X", "Y", "Z", "A", "B", "d", "w", "t")

_names: list[str] = []
_ids: dict[str, int] = {}

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def register(name: str) -> int:
    """Return the registry id of ``name``, registering it if new."""
    vid = _ids.get(name)
    if vid is None:
        if not _NAME_RE.fullmatch(name):
            raise ValueError(f"bad variable name: {name!r}")
        vid = len(_names)
        _names.append(name)
        _ids[name] = vid
    return vid


def var_name(vid: int) -> str:
    return _names[vid]


for _n in _BUILTINS:
    register(_n)
_NUM_BUILTINS = len(_BUILTINS)


# A monomial key is a tuple of (vid, exp4) pairs sorted by vid, exp4 != 0,
# where exp4 is four times the actual exponent.
Key = tuple


def _mul_keys(k1: Key, k2: Key) -> Key:
    exps = dict(k1)
    for vid, e4 in k2:
        ne = exps.get(vid, 0) + e4
        if ne:
            exps[vid] = ne
        else:
            del exps[vid]
    return tuple(sorted(exps.items()))


def _accumulate(terms: dict, items) -> None:
    """Add (key, coefficient) pairs into ``terms`` in place, dropping zeros."""
    for k, c in items:
        nc = terms.get(k, 0) + c
        if nc:
            terms[k] = nc
        else:
            del terms[k]


class Polynomial:
    """Immutable exact Laurent polynomial.

    Terms map monomial keys to nonzero integer coefficients; zero
    coefficients and zero exponents are never stored, so equality of
    polynomials is equality of the term mappings.  A sum from
    ``class_sum`` holds its terms packed (``_packed``: its ``_Fields`` and
    a map from packed keys to coefficients) and decodes ``_terms`` on the
    first read.
    """

    __slots__ = ("_terms", "_packed")

    def __init__(self, terms: dict | None = None):
        self._terms = terms if terms is not None else {}
        self._packed = None

    def __getattr__(self, name):
        # only ``class_sum``'s packed polynomials leave ``_terms`` unset:
        # decode their keys on the first read and keep the result
        if name != "_terms" or self._packed is None:
            raise AttributeError(name)
        fields, acc = self._packed
        decode = fields.decode
        terms = self._terms = {decode(key): c for key, c in acc.items()}
        return terms

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(n: int) -> "Polynomial":
        return Polynomial({(): n} if n else {})

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "Polynomial":
        terms = dict(self._terms)
        _accumulate(terms, _coerce(other)._terms.items())
        return Polynomial(terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial({k: -c for k, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        other = _coerce(other)
        terms: dict = {}
        _accumulate(terms, ((_mul_keys(k1, k2), c1 * c2)
                            for k1, c1 in self._terms.items()
                            for k2, c2 in other._terms.items()))
        return Polynomial(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            if not self.is_monomial():
                raise NonMonomialNegativePower(
                    f"negative power {n} of {'a non-monomial' if self else 'zero'}")
            return _term_power(self, 4 * n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- comparisons --------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Polynomial.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._terms.keys() <= {()}:  # a constant hashes like the int it equals
            return hash(self._terms.get((), 0))
        return hash(frozenset(self._terms.items()))

    # -- substitution -------------------------------------------------

    def subs(self, mapping: Mapping[str, Union["Polynomial", int]]) -> "Polynomial":
        """Simultaneously replace variables by polynomials, fully expanded.

        A multi-term replacement may only be substituted into nonnegative
        integer powers of its variable; a single-term replacement goes into
        any quarter-integer power as long as the result stays exact.  A
        term folds the powers of its single-term replacements into one
        exponent dict and coefficient; only multi-term powers multiply.
        """
        repl = {register(n): _coerce(p) for n, p in mapping.items()}
        order = sorted(repl)        # key order: the first bad power raises
        out: dict = {}
        cache: dict = {}
        for key, c in self._terms.items():
            exps = dict(key)
            products = []
            for vid, e4 in [(vid, exps.pop(vid)) for vid in order if vid in exps]:
                power = _power_cached(repl[vid], e4, vid, cache)
                if len(power._terms) != 1:
                    products.append(power)
                    continue
                ((k, pc),) = power._terms.items()
                c *= pc
                for v, e in k:
                    if e := e + exps.pop(v, 0):
                        exps[v] = e
            items = [(tuple(sorted(exps.items())), c)]
            for power in products:
                items = [(_mul_keys(k1, k2), c1 * c2)
                         for k1, c1 in items for k2, c2 in power._terms.items()]
            _accumulate(out, items)
        return Polynomial(out)

    def substitute(self, name: str, value: Union["Polynomial", int]) -> "Polynomial":
        return self.subs({name: value})

    def variables(self) -> set:
        """Names of the variables that occur with nonzero exponent."""
        return {var_name(vid) for key in self._terms for vid, _ in key}

    # -- rendering ----------------------------------------------------

    def canonical(self) -> str:
        """Deterministic text form; ``parse`` inverts it exactly.

        Terms come in descending lexicographic order of their exponent
        vectors, the variables taken in registry-id order.  Within a term
        the registered names come before the builtins, each group in
        registry-id order, after the coefficient unless it is 1 or -1.

        Every polynomial is written by ``_Fields.texts`` from packed keys.
        A packed polynomial (``class_sum``'s) has its own.  Any other gets a
        ``_Fields`` whose biases are each variable's largest |exp4| among
        its distinct (vid, exp4) pairs, and a term's key is base plus the
        sum of its pairs' exp4 << offset, one int per distinct pair.  The
        packing is not kept.
        """
        if self._packed is not None:
            fields, acc = self._packed
        else:
            pairs = set(chain.from_iterable(self._terms))
            fields = _Fields(_bias(pairs))
            packed = {pair: pair[1] << fields.offset[pair[0]] for pair in pairs}.__getitem__
            acc = {fields.base + sum(map(packed, key)): c for key, c in self._terms.items()}
        return _join_terms(fields.texts(acc))

    def __str__(self) -> str:
        return self.canonical()

    def __repr__(self) -> str:
        return f"Polynomial({self.canonical()!r})"

    # -- internal consistency (used by tests) -------------------------

    def check_invariants(self) -> None:
        for key, c in self._terms.items():
            assert isinstance(c, int) and c != 0
            assert key == tuple(sorted(key))
            for vid, e4 in key:
                assert isinstance(e4, int) and e4 != 0
                assert 0 <= vid < len(_names)


ZERO = Polynomial.const(0)
ONE = Polynomial.const(1)


def _coerce(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, int):
        return Polynomial.const(value)
    raise TypeError(f"cannot treat {value!r} as a polynomial")


def var(name: str) -> Polynomial:
    """The polynomial consisting of the single variable ``name``."""
    return Polynomial({((register(name), 4),): 1})


def monomial(coeff: int, powers: Mapping[str, Union[int, Fraction]]) -> Polynomial:
    """Build ``coeff * prod(v**e)`` with quarter-integer exponents."""
    if coeff == 0:
        return ZERO
    exps = {}
    for name, e in powers.items():
        e4 = Fraction(e) * 4
        if e4.denominator != 1:
            raise ValueError(f"exponent {e} is not a quarter-integer")
        if e4:
            exps[register(name)] = int(e4)
    return Polynomial({tuple(sorted(exps.items())): coeff})


def _term_power(q: Polynomial, e4: int) -> Polynomial:
    """A single-term polynomial raised to the quarter-integer power e4/4."""
    ((key, c),) = q._terms.items()
    exps = []
    for vid, m4 in key:
        ne = m4 * e4
        if ne % 4:
            raise NonMonomialNegativePower(
                f"power {Fraction(e4, 4)} of {q} leaves the quarter-integer lattice")
        exps.append((vid, ne // 4))
    if e4 % 4 == 0:
        p = e4 // 4
        if p >= 0:
            nc = c ** p
        elif c in (1, -1):
            nc = c if p % 2 else 1
        else:
            raise NonMonomialNegativePower(
                f"negative power of monomial with non-unit coefficient {c}")
    elif c == 1:
        nc = 1
    else:
        raise NonMonomialNegativePower(
            f"fractional power of monomial with coefficient {c}")
    return Polynomial({tuple(kv for kv in exps if kv[1]): nc})


def _power_cached(q: Polynomial, e4: int, vid: int, cache: dict) -> Polynomial:
    got = cache.get((vid, e4))
    if got is not None:
        return got
    if q.is_monomial():
        out = _term_power(q, e4)
    elif e4 > 0 and e4 % 4 == 0:
        out = q ** (e4 // 4)
    else:
        raise NonMonomialNegativePower(
            f"cannot raise {f'multi-term value {q}' if q else 'zero'} "
            f"to power {Fraction(e4, 4)}")
    cache[(vid, e4)] = out
    return out


def class_sum(classes: list, names: tuple, bound: int, terms: Iterable) -> Polynomial:
    """Sum over the triples (index, e, c) of ``terms`` of
    c * prod_i x_i^a_i * y_i^(n_i - a_i) * prod(v^e_v), where ``classes``
    lists one (x_i, y_i, n_i) per weight class, ``index`` is the a_i
    written mixed-radix (class 0 the lowest digit, class i of radix
    n_i + 1), and e holds the int exponents of the variables ``names``,
    each in [-bound, bound].  With no classes the index is 0.

    This is the one term accumulator.  A monomial is one int, its exponent
    vector packed into the bit fields of ``_Fields``, so multiplying
    monomials adds ints.  The weight products of the low half of the
    classes and of the high half are tabulated once each, by their part of
    the index, as lists of (packed int, coefficient); a multi-term weight
    is a longer list on the same path.  A term adds its exponents times the
    field units to one entry of each table and accumulates the sums in
    place.  The result keeps the packed ints and their fields: ``canonical``
    writes its text from them, and its (vid, exp4) keys are decoded only
    when first read.  A table of more than ``_WEIGHT_TABLE_ENTRIES`` entries
    raises SizeLimit before any table is built.
    """
    half = len(classes) // 2
    for part in classes[:half], classes[half:]:
        if (entries := prod(n + 1 for _, _, n in part)) > _WEIGHT_TABLE_ENTRIES:
            raise SizeLimit(f"a weight table of {entries} entries exceeds {_WEIGHT_TABLE_ENTRIES}")
    fields = _Fields(_span(classes, names, bound))
    units = [4 << fields.offset[register(name)] for name in names]
    low = [[(k + fields.base, c) for k, c in t] for t in _table(fields, classes[:half])]
    high = _table(fields, classes[half:])
    size = len(low)
    acc: dict = {}
    for index, exps, count in terms:
        e = sum(map(mul, units, exps))
        highs = high[index // size]
        for k1, c1 in low[index % size]:
            for k2, c2 in highs:
                key = e + k1 + k2
                acc[key] = acc.get(key, 0) + count * c1 * c2
    out = Polynomial.__new__(Polynomial)
    out._packed = fields, {key: c for key, c in acc.items() if c}
    return out


# The most entries of one half's weight table.  B_R under the default cap of
# 24 edges, one class per edge, needs 2^12; 2^16 lets a raised cap reach 32
# edges, 2^32 states, past any enumeration that finishes, in a few MB.
_WEIGHT_TABLE_ENTRIES = 1 << 16


def _span(classes: list, names: tuple, bound: int) -> dict:
    """Each variable's bias in ``class_sum``: 4 * bound if it is among the
    term's names, plus, per element, its largest |exp4| in either weight."""
    span = dict.fromkeys((register(name) for name in names), 4 * bound)
    for x, y, n in classes:
        for vid, e4 in _bias(chain(*x._terms, *y._terms)).items():
            span[vid] = span.get(vid, 0) + n * e4
    return span


def _bias(pairs: Iterable) -> dict:
    """The largest |exp4| of each variable among the (vid, exp4) ``pairs``."""
    top: dict = {}
    for vid, e4 in pairs:
        top[vid] = max(top.get(vid, 0), abs(e4))
    return top


def _table(fields: "_Fields", classes: list) -> list:
    """The packed weight products prod_i x_i^a_i * y_i^(n_i - a_i) over
    ``classes``, indexed mixed-radix by the a_i, class 0 the lowest digit.
    Equal keys merge and zeros drop."""
    table = [[(0, 1)]]
    for x, y, n in classes:
        px, py = fields.pack(x), fields.pack(y)
        rows = [table]          # rows[a]: table times x^a * y^(steps - a)
        for _ in range(n):
            rows = [[_times(t, py) for t in rows[0]]] + [
                [_times(t, px) for t in row] for row in rows]
        table = [t for row in rows for t in row]
    return table


# the most consecutive fields that ``_Fields`` reads at once
_GROUP = 8


def _layout(vids: Iterable[int]) -> list:
    """The variables ``vids`` in the order their bit fields are laid out,
    lowest bits first: the highest id in the lowest bits.  With every field
    nonnegative, comparing the ints then compares the exponent vectors in
    registry-id order, which is the canonical term order."""
    return sorted(vids, reverse=True)


class _Fields:
    """The bit fields of packed exponent vectors.

    Every variable of ``span``, a map from vid to bias, gets a field, laid
    out by ``_layout``.  A field holds exp4 plus the bias, the largest
    |exp4| the variable can reach: in ``class_sum`` over the states
    (``_span``), in ``canonical()`` over the terms present.  A field is
    wide enough for twice its bias, so every reachable exponent packs into
    [0, 2 * bias] and a sum of packed vectors never carries from one field
    into the next.  The bias sum is ``base``: a term's key is base + its
    packed vectors, so the keys in descending order are the terms in
    canonical order.

    ``decode`` and ``texts`` read the fields in groups of at most _GROUP,
    each group's bits through a memo (``_Memo``) of its (vid, exp4) pairs
    or of its factor text; the memos are made on first use.
    """

    def __init__(self, span: Mapping[int, int]):
        self.offset = {}
        self.fields = []        # (offset, mask, vid, bias), lowest bits first
        self.base = pos = 0
        for vid in _layout(span):
            bias = span[vid]
            width = (2 * bias).bit_length()
            self.offset[vid] = pos
            self.fields.append((pos, (1 << width) - 1, vid, bias))
            self.base += bias << pos
            pos += width

    @cached_property
    def groups(self) -> list:
        """(low bit, mask, memo of the (vid, exp4) pairs) per group of
        fields, highest bits first, so that a key's pairs come out in vid
        order."""
        return [(low, mask, _Memo(fields, tuple, tuple))
                for low, mask, fields in _chunks(self.fields)]

    @cached_property
    def text_groups(self) -> list:
        """(low bit, mask, memo of the factor text, each factor followed by
        *) per group of fields, in a term's text order: the registered
        names, in the low bits, are grouped apart from the builtins and come
        first."""
        cut = sum(vid >= _NUM_BUILTINS for _, _, vid, _ in self.fields)
        return [(low, mask, _Memo(fields, lambda pair: _render_factor(*pair) + "*", "".join))
                for part in (self.fields[:cut], self.fields[cut:])
                for low, mask, fields in _chunks(part)]

    def pack(self, p: Polynomial) -> list:
        """The terms of ``p`` as (packed exponent vector, coefficient) pairs."""
        return [(sum(e4 << self.offset[vid] for vid, e4 in key), c)
                for key, c in p._terms.items()]

    def decode(self, key: int) -> Key:
        """The sorted (vid, exp4) key of base + a packed exponent vector."""
        groups = self.groups
        if len(groups) == 1:        # the key is the one group's bits
            return groups[0][2][key]
        pairs: list = []
        for low, mask, group in groups:
            pairs += group[key >> low & mask]
        return tuple(pairs)     # exact size, where tuple(chain(...)) over-allocates

    def texts(self, acc: dict) -> Iterable:
        """(factor text, coefficient) per term of ``acc``, a map from keys
        to coefficients, in canonical order: the keys descending.  Each
        group's text is read for all keys at once, a lazy column per group,
        and a term's text is made only when it is taken."""
        keys = sorted(acc, reverse=True)
        columns = [map(text.__getitem__,
                       map(and_, map(rshift, keys, repeat(low)), repeat(mask)))
                   for low, mask, text in self.text_groups]
        # every factor's text ends in *: drop the term's last one
        return zip(map(itemgetter(slice(-1)), map("".join, zip(*columns))) if columns
                   else repeat(""), map(acc.__getitem__, keys))


def _chunks(fields: list) -> list:
    """``_Fields`` fields, lowest bits first, in groups of at most _GROUP
    from the top, highest bits first: (low bit, mask, the group's fields as
    (offset in the group, mask, vid, bias) in vid order)."""
    groups = []
    for top in range(len(fields), 0, -_GROUP):
        chunk = fields[max(0, top - _GROUP):top]
        low = chunk[0][0]
        high = chunk[-1][0] + chunk[-1][1].bit_length()
        groups.append((low, (1 << (high - low)) - 1,
                       [(at - low, *rest) for at, *rest in reversed(chunk)]))
    return groups


class _Memo(dict):
    """The bits of a group's fields -> ``join`` of one entry per field whose
    exp4 is not 0, made once per value.  An entry is ``make((vid, exp4))``,
    made once per field and exp4: with ``make`` = ``tuple``, the pair
    itself, so every decoded key holds the same pair objects."""

    __slots__ = ("fields", "make", "join")

    def __init__(self, fields: list, make, join):
        super().__init__()
        self.fields = [(at, mask, vid, bias, {}) for at, mask, vid, bias in fields]
        self.make = make
        self.join = join

    def __missing__(self, bits: int):
        entries = []
        for at, mask, vid, bias, made in self.fields:
            if e4 := (bits >> at & mask) - bias:
                entry = made.get(e4)
                if entry is None:
                    entry = made[e4] = self.make((vid, e4))
                entries.append(entry)
        value = self[bits] = self.join(entries)
        return value


def _times(a: list, b: list) -> list:
    out: dict = {}
    for k1, c1 in a:
        for k2, c2 in b:
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return [kc for kc in out.items() if kc[1]]


def swap_vars(p: Polynomial, a: str, b: str) -> Polynomial:
    """Exchange two variables throughout ``p``."""
    return p.subs({a: var(b), b: var(a)})


# -- rendering helpers ------------------------------------------------


def _decimal(n: int) -> str:
    """``str(n)``, but a RenderError past the interpreter's limit on
    integer-to-string conversion."""
    try:
        return str(n)
    except ValueError:
        digits = abs(n).bit_length() * 30103 // 100000
        raise RenderError(f"a number of over {digits} digits is too large "
                          f"to print") from None


def _join_terms(terms: Iterable) -> str:
    """The text of the (factor text, coefficient) terms, in their order:
    each signed, its coefficient first unless it is 1 or -1, and "0" for
    no term."""
    parts = []
    for body, c in terms:
        if c not in (1, -1):
            coeff = _decimal(abs(c))
            body = f"{coeff}*{body}" if body else coeff
        parts.append((" + " if c > 0 else " - ") + (body or "1"))
    if not parts:
        return "0"
    first = parts[0]
    parts[0] = first[3:] if first[1] == "+" else "-" + first[3:]
    return "".join(parts)


def _render_factor(vid: int, e4: int) -> str:
    name = _names[vid]
    if e4 == 4:
        return name
    f = Fraction(e4, 4)
    if f.denominator == 1:
        return f"{name}^{_decimal(f.numerator)}"
    return f"{name}^({_decimal(f.numerator)}/{f.denominator})"


# -- parsing ----------------------------------------------------------

_SIGNS = re.compile(r"[-+\s]*")
_FACTOR = re.compile(r"""(?: (?P<num>\d+) | (?P<name>[A-Za-z][A-Za-z0-9_]*)
    (?: \s*\^\s* (?:(?P<paren>\()\s*)? (?:(?P<minus>-)\s*)? (?P<p>\d+)\s*
        (?(paren) (?:/\s*(?P<q>\d+)\s*)? \) ) )?
    ) \s*(?P<star>\*\s*)?""", re.VERBOSE)


def parse(text: str) -> Polynomial:
    """Read the text of ``canonical()`` back into a value.

        text   = term, {sign, term}
        term   = {sign}, factor, {"*", factor}
        factor = digits | name, ["^", int | "^(", int, ["/", digits], ")"]
        int    = ["-"], digits

    where a sign is + or -, space may come before any token and at the end,
    and p/q is a quarter-integer.  An accepted text registers, left to right, the name
    of each factor with a nonzero exponent, even in a term with coefficient
    0; a rejected text registers none.  Each ParseError names a position.
    """
    terms, pos = [], 0      # (coefficient, {name: exp4}) per term, position
    while pos < len(text) or not terms:
        if terms and text[pos] not in "+-":
            raise ParseError(f"unexpected {text[pos]!r} at position {pos} in {text!r}")
        signs = _SIGNS.match(text, pos)
        coeff, exps, star = -1 if signs.group().count("-") % 2 else 1, {}, "*"
        pos = signs.end()
        while star:
            m = _FACTOR.match(text, pos)
            if m is None:
                raise ParseError(
                    f"expected a name or number at position {pos} in {text!r}")
            num, name, *_, star = m.groups()
            if num is not None:
                coeff *= _int(m, "num")
            elif e4 := _exponent(m, text):
                exps[name] = exps.get(name, 0) + e4
            pos = m.end()
        terms.append((coeff, exps))
    for name in dict.fromkeys(name for _, exps in terms for name in exps):
        register(name)
    out: dict = {}
    for c, exps in terms:
        key = tuple(sorted([(_ids[n], e4) for n, e4 in exps.items() if e4]))
        out[key] = out.get(key, 0) + c
    return Polynomial({k: c for k, c in out.items() if c})


def _exponent(m: re.Match, text: str) -> int:
    """exp4 of the name factor ``m``; ^n is read as ^(n/1)."""
    if m["p"] is None:
        return 4
    num = -_int(m, "p") if m["minus"] else _int(m, "p")
    den = 1 if m["q"] is None else _int(m, "q")
    if not den:
        raise ParseError(f"zero denominator at position {m.start('q')} in {text!r}")
    if 4 * num % den:
        raise ParseError(f"exponent {num}/{den} is not a quarter-integer "
                         f"at position {m.start('p')} in {text!r}")
    return 4 * num // den


def _int(m: re.Match, group: str) -> int:
    digits = m[group]
    try:
        return int(digits)
    except ValueError:      # past the interpreter's integer-string limit
        raise ParseError(f"integer of {len(digits)} digits at position "
                         f"{m.start(group)} is too long") from None
