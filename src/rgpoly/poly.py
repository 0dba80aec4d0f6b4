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
states share it.  The sums pass their records with an affine form
(``Affine``): B_R's exponents (k - k(R), n, k - bc + n) are affine in a
record's (ones, cycles, joins), the relative Tutte polynomial's (X, Y, d,
w) in (ones, cycles, j, jh), and the bracket's (A, B, d) in (ones,
cycles).  B_R feeds it ``util.sweep``'s blocks, one element per class, so
a mask is its own index; the other two sums feed it those or, where
``util.tally`` picks it, ``util.census``'s counts by set bits per (x, y)
class, each record a block of one state.  The Kauffman bracket keeps A
and B as term variables and passes no class at all.  Inside it
a monomial is one int: each variable of the weights and of the term owns
a bit field of its exponent vector, holding exp4 plus a bias, so negative exponents pack too
(Kronecker substitution).  A field's bias is the largest |exp4| the
variable can reach, summed over the elements from the weights and bounded
for the term by the caller; the field is wide enough for twice the bias,
so adding packed ints multiplies monomials and no sum carries into the
next field, and an affine form packs into one int per record value and a
constant.  The weight products of the low and high halves of the classes
are tabulated once as lists of (packed int, coefficient), a multi-term
weight being a longer list on the same path.  A block of 2^b states,
whose indexes run on from a multiple of 2^b, has one packed column (each
value's packed int times its bytes column, kept per distinct columns); a
record is a block of one state, whose packed column is (0,).  Where the
blocks are an indexed sweep's and every weight is a monomial with
coefficient 1, a block's keys are one column of ints, its packed column
plus 2^b consecutive low-table keys under one high-table key, or, when it
is longer than the low table, whole low tables under consecutive high
keys, counted in at once.  Every other state goes through one loop, which
adds its key to each pair of entries of its low and high rows.  A table
past ``_WEIGHT_TABLE_ENTRIES`` entries raises SizeLimit before any
entry is built.

``class_sum`` also substitutes while it sums, as the specializations of the
paper read the sums: B_R at Z = 1/sqrt(XY), T at d, w = sqrt(XY),
sqrt(X/Y), the bracket at A, B, d in t.  A term variable whose image is a
monomial with coefficient 1 gets the image's packed exponents as its unit;
any other image's variable sums its exponent in a slot above the fields,
and the image's powers multiply into the summed keys; a weight that holds
a substituted variable is substituted before its table is built.  The
result is the sum substituted after, byte for byte; where an image might
not go into a power that a term or weight holds, those terms are summed
plainly and take ``subs`` after, so that errors are those of ``subs``.

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
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from math import prod
from operator import add, and_, itemgetter, mul, rshift
from typing import Iterable, Mapping, NamedTuple, Union

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
        return self._subs(_images(mapping))

    def _subs(self, repl: dict) -> "Polynomial":
        """``subs`` with the replacements keyed by registry id."""
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


def _images(mapping: Mapping) -> dict:
    """The replacements of ``mapping`` keyed by registry id, each name
    registered in the mapping's order."""
    return {register(n): _coerce(p) for n, p in mapping.items()}


class Affine(NamedTuple):
    """State records read as ``class_sum`` terms through an affine form.

    ``records`` yields records (index, v_1, ..., v_k, count), or is a
    ``util.Sweep``, whose blocks ``class_sum`` reads when it has a width.
    ``rows`` holds one row (c, a_1, ..., a_k) per name of ``class_sum``: a
    record's exponent of that name is c + a_1 v_1 + ... + a_k v_k.  With
    ``indexed`` false every record's index is taken as 0.  ``factor``, a
    monomial stated in the variables of the result (after ``subs``),
    multiplies every term.
    """

    records: Iterable
    rows: tuple
    indexed: bool = True
    factor: Polynomial | None = None


def class_sum(classes: list, names: tuple, bound: int, terms: Iterable,
              subs: Mapping | None = None) -> Polynomial:
    """Sum over the triples (index, e, c) of ``terms`` of
    c * prod_i x_i^a_i * y_i^(n_i - a_i) * prod(v^e_v), where ``classes``
    lists one (x_i, y_i, n_i) per weight class, ``index`` is the a_i
    written mixed-radix (class 0 the lowest digit, class i of radix
    n_i + 1), and e holds the int exponents of the variables ``names``,
    each in [-bound, bound].  With no classes the index is 0.  ``terms``
    may also be an ``Affine`` form of state records, whose exponents are
    affine in the records' values; a ``util.Sweep`` of them is read a
    block of 2^b states at a time.

    This is the one term accumulator.  A monomial is one int, its exponent
    vector packed into the bit fields of ``_Fields``, so multiplying
    monomials adds ints, and an affine form packs into one int per record
    value (each name's coefficient times the name's unit) and a constant.
    The weight products of the low half of the classes and of the high
    half are tabulated once each, by their part of the index, as lists of
    (packed int, coefficient); a multi-term weight is a longer list on the
    same path.

    A sweep's block of 2^b states, whose indexes are consecutive from a
    multiple of 2^b, has one packed column, the sum of each value's packed
    int times the value's bytes column, made once per distinct columns (at
    most ``_WEIGHT_TABLE_ENTRIES`` packed ints are kept, then they are
    cleared); a plain term or any other record is a block of one state,
    whose packed column is (0,).  Where the sweep is indexed and every
    weight is a monomial with coefficient 1, a block's states read 2^b
    consecutive keys of the low table under one key of the high, or, when
    the block is longer than the low table, whole low tables under
    consecutive high keys, and its keys, one column of ints, are counted
    into the accumulator at once.  Every other state goes through one
    loop, which adds its key to each pair of entries of its low and high
    rows, the coefficients multiplied.  The result keeps the packed ints
    and their fields: ``canonical`` writes its text from them, and its
    (vid, exp4) keys are decoded only when first read.  A table of more than
    ``_WEIGHT_TABLE_ENTRIES`` entries raises SizeLimit before any table is
    built.

    ``subs`` maps names to images as ``Polynomial.subs`` takes it, and the
    sum is then the one without it after ``.subs(subs)``, the same value
    or the same error, with each name registered as ``subs`` registers
    it.  The images go in while the terms are summed:
    - a name of ``names`` whose image is a monomial with coefficient 1
      has the image's packed exponents as its unit;
    - any other image of a name of ``names`` (a multi-term one, a
      coefficient other than 1, or 0) is tabled: the name's exponent sums
      in a slot of its own above the fields, and once the terms are summed
      the image's packed powers, each built once from the one below,
      multiply into the summed keys.  The records are then read one state
      at a time, since each term's sign decides its path;
    - a weight that holds a substituted variable takes ``.subs`` before
      the weight tables are built, which is exact because substitution is
      a ring map.
    Each image variable's bias grows by bound times its largest |exp4|.
    A weight that an image cannot go into (a multi-term image into a
    fractional power, say) leaves the terms unsummed, and the sum is then
    taken without ``subs`` and substituted after.  The terms that hold a
    negative exponent of a tabled name are summed apart, without
    ``subs``, and take it after.  So the sum raises exactly where ``subs``
    does.  An ``Affine`` factor is stated in the variables of the result,
    so it takes no image.
    """
    half = len(classes) // 2
    for part in classes[:half], classes[half:]:
        if (entries := prod(n + 1 for _, _, n in part)) > _WEIGHT_TABLE_ENTRIES:
            raise SizeLimit(f"a weight table of {entries} entries exceeds {_WEIGHT_TABLE_ENTRIES}")
    if not isinstance(terms, Affine):
        terms = _plain(terms, len(names))
    if subs is not None:
        return _class_sum_at(classes, names, bound, terms, subs)
    span = _span(classes, names, bound)
    if terms.factor is not None:
        _grow(span, terms.factor, 1)
    fields = _Fields(span)
    units = [4 << fields.offset[register(name)] for name in names]
    return _summed(fields, classes, units, terms)


def _plain(terms: Iterable, k: int) -> Affine:
    """The terms (index, exponents, count) as records under the identity
    form."""
    return Affine(((index, *exps, count) for index, exps, count in terms),
                  tuple((0, *(int(i == j) for j in range(k))) for i in range(k)))


def _grow(span: dict, q: Polynomial, times: int) -> None:
    """Grow each bias of ``span`` by ``times`` the largest |exp4| of its
    variable in ``q``."""
    for vid, e4 in _bias(chain(*q._terms)).items():
        span[vid] = span.get(vid, 0) + times * e4


def _class_sum_at(classes: list, names: tuple, bound: int, terms: Iterable,
                  subs: Mapping) -> Polynomial:
    """``class_sum`` with ``subs``: the images go into the weights, the
    units and the summed keys, or, where one might not go in, the plain
    sum takes ``subs`` after."""
    identities = [var(name) for name in names]     # the names register before the map's
    repl = _images(subs)
    images = [repl.get(register(name), q) for name, q in zip(names, identities)]
    factor = terms.factor
    try:
        weights = [(_subs_weight(x, repl), _subs_weight(y, repl), n) for x, y, n in classes]
    except NonMonomialNegativePower:
        sum_ = class_sum(classes, names, bound, terms._replace(factor=None))
        return _times_factor(sum_.subs(subs), factor)
    span = _span(weights, (), bound)
    for q in images:
        _grow(span, q, bound)
    if factor is not None:
        _grow(span, factor, 1)
    fields = _Fields(span)
    # a tabled name's exponent, 0 to bound, sums in a slot of its own above
    # every field (a key is at most 2 * base).  A term that holds a negative
    # one is summed apart, without the images, and takes ``subs`` after: the
    # weights took their images, so only those terms can hold a power that
    # an image cannot go into
    tabled = [i for i, q in enumerate(images) if not _is_unit(q)]
    low, width = (2 * fields.base).bit_length(), bound.bit_length()
    slots = {i: low + j * width for j, i in enumerate(tabled)}
    units = [1 << slots[i] if i in slots else fields.pack(q)[0][0] for i, q in enumerate(images)]
    negative: list = []
    if tabled:
        terms = _nonnegative(terms, tabled, negative)
    out = _summed(fields, weights, units, terms)
    if tabled:
        mask = (1 << width) - 1
        out._packed = fields, _expand(out._packed[1], low, [
            (slots[i], mask, fields.pack(images[i])) for i in tabled])
    if negative:
        return out + _times_factor(class_sum(classes, names, bound, negative).subs(subs), factor)
    return out


def _times_factor(p: Polynomial, factor: Polynomial | None) -> Polynomial:
    return p if factor is None else p * factor


def _summed(fields: "_Fields", classes: list, units: list, terms: Affine) -> Polynomial:
    """``class_sum``'s loop: the records or blocks of ``terms``, their
    exponents packed by ``units``, times the weight tables of ``classes``
    and the form's factor, accumulated as packed keys."""
    # the packed constant, and each value's packed int
    const, *coefficients = [sum(map(mul, units, column)) for column in zip(*terms.rows)] or [0]
    records, indexed = terms.records, terms.indexed
    width = getattr(records, "width", 0)        # a sweep of column blocks
    scale = 1
    if terms.factor is not None:
        ((packed, scale),) = fields.pack(terms.factor)
        const += packed
    half = len(classes) // 2
    low = _table(fields, classes[:half], fields.base)
    high = _table(fields, classes[half:])
    size = len(low)
    # where every weight is a monomial with coefficient 1, a state's weight
    # is one key of each table
    plain = width and indexed and all(len(row) == 1 and row[0][1] == 1
                                      for row in chain(low, high))
    by_record = [0, *coefficients]        # a record's index takes none
    columns_packed: dict = {}

    def packed_blocks():
        # a block's states add one packed column, kept per distinct columns
        for record, columns in records.blocks():
            packed = columns_packed.get(columns)
            if packed is None:
                n = len(columns[0])
                packed = repeat(0, n)
                for p, column in zip(coefficients, columns):
                    if p:
                        packed = map(add, packed, map(p.__mul__, column))
                if len(columns_packed) * n >= _WEIGHT_TABLE_ENTRIES:
                    columns_packed.clear()
                packed = columns_packed[columns] = list(packed)
            yield record, packed

    # a record is a block of one state, whose packed column is (0,)
    blocks = packed_blocks() if width else zip(records, repeat((0,)))
    if plain:
        # every state counts 1; the states index, ..., index + n - 1 read n
        # consecutive low rows and one high row, or, past the low table,
        # whole low tables under consecutive high rows
        low_keys, high_keys = ([k for ((k, _),) in table] for table in (low, high))
        acc: dict = Counter()
        for record, packed in blocks:
            key = const + sum(map(mul, by_record, record))
            index, n = record[0], len(packed)
            if n <= size:
                at = index % size
                keys = map((key + high_keys[index // size]).__add__,
                           map(add, packed, low_keys[at:at + n]))
            else:
                top = index // size
                weights = [k1 + k2 for k2 in high_keys[top:top + n // size] for k1 in low_keys]
                keys = map(key.__add__, map(add, packed, weights))
            acc.update(keys)
    else:
        acc = {}
        get = acc.get
        for record, packed in blocks:
            key = const + sum(map(mul, by_record, record))
            index = record[0] if indexed else 0
            count = record[-1]
            for e in packed:
                e += key
                highs = high[index // size]
                for k1, c1 in low[index % size]:
                    for k2, c2 in highs:
                        k = e + k1 + k2
                        acc[k] = get(k, 0) + count * c1 * c2
                index += indexed
    if scale != 1:
        acc = {key: c * scale for key, c in acc.items()}
    out = Polynomial.__new__(Polynomial)
    out._packed = fields, ({key: c for key, c in acc.items() if c} if 0 in acc.values()
                           else dict(acc))
    return out


def _is_unit(q: Polynomial) -> bool:
    """Whether ``q`` is a monomial with coefficient 1, which substitutes
    into any int power by its exponents alone."""
    return list(q._terms.values()) == [1]


def _subs_weight(p: Polynomial, repl: dict) -> Polynomial:
    """``p`` after the replacements ``repl``, or ``p`` itself if it holds
    none of their variables."""
    if any(vid in repl for key in p._terms for vid, _ in key):
        return p._subs(repl)
    return p


def _nonnegative(terms: Affine, tabled: list, negative: list) -> Affine:
    """``terms`` with only the records whose exponents at ``tabled`` are
    all nonnegative, one state each (a sweep's records are its blocks
    flattened); the others are appended to ``negative`` as plain terms."""
    rows = [(row[0], (0, *row[1:])) for row in terms.rows]

    def records():
        for record in terms.records:
            exps = [c + sum(map(mul, a, record)) for c, a in rows]
            if min([exps[i] for i in tabled]) < 0:
                negative.append((record[0] if terms.indexed else 0, tuple(exps), record[-1]))
            else:
                yield record
    return terms._replace(records=records())


def _expand(acc: dict, low: int, tables: list) -> dict:
    """The summed keys of ``acc`` with each tabled name's power multiplied
    in: ``tables`` lists (slot, mask, packed image) per name, the slot's
    bits holding the name's exponent, and each power is built once, from
    the one below."""
    keep = (1 << low) - 1
    powers = []
    for at, mask, packed in tables:
        table = [[(0, 1)]]
        for _ in range(max((key >> at & mask for key in acc), default=0)):
            table.append(_times(table[-1], packed))
        powers.append((at, mask, table))
    out: dict = {}
    for key, c in acc.items():
        parts = [(key & keep, c)]
        for at, mask, table in powers:
            parts = [(k + pk, c * pc) for k, c in parts for pk, pc in table[key >> at & mask]]
        for k, c in parts:
            out[k] = out.get(k, 0) + c
    return {key: c for key, c in out.items() if c}


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


def _table(fields: "_Fields", classes: list, base: int = 0) -> list:
    """The packed weight products prod_i x_i^a_i * y_i^(n_i - a_i) over
    ``classes``, indexed mixed-radix by the a_i, class 0 the lowest digit,
    each key plus ``base``.  Equal keys merge and zeros drop."""
    table = [[(base, 1)]]
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
    if len(b) == 1:     # distinct keys plus one key stay distinct
        ((k2, c2),) = b
        return [(k1 + k2, c1 * c2) for k1, c1 in a]
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
