"""Exact multivariate Laurent polynomials with quarter-integer exponents.

Coefficients are arbitrary-precision integers and exponents are stored as
integers scaled by 4, so every operation is exact.  Quarter denominators
cover all substitutions used by the graph polynomials and the bracket:
d = sqrt(X*Y), w = sqrt(X/Y), Z = 1/sqrt(X*Y), A = t^(-1/4), B = t^(1/4).

Variables live in a process-wide registry with a fixed total order
(registration order).  The symbols X, Y, Z, A, B, d, w, t are built in;
per-edge weight symbols such as ``x_e`` are registered on demand.

``state_sum`` is the one loop behind the three state sums (Bollobas-Riordan,
relative Tutte, Kauffman bracket): it weights every subset of an indexed
ground set and adds the terms in place, so assembly is linear in their
number.
"""

from __future__ import annotations

import re
from fractions import Fraction
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
    polynomials is equality of the term mappings.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | None = None):
        self._terms = terms if terms is not None else {}

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
                    f"negative power {n} of a non-monomial")
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
        any quarter-integer power as long as the result stays exact.
        """
        repl = {register(n): _coerce(p) for n, p in mapping.items()}
        out: dict = {}
        cache: dict = {}
        for key, c in self._terms.items():
            kept = tuple(kv for kv in key if kv[0] not in repl)
            term = Polynomial({kept: c})
            for vid, e4 in key:
                if vid in repl:
                    term = term * _power_cached(repl[vid], e4, vid, cache)
            _accumulate(out, term._terms.items())
        return Polynomial(out)

    def substitute(self, name: str, value: Union["Polynomial", int]) -> "Polynomial":
        return self.subs({name: value})

    def variables(self) -> set:
        """Names of the variables that occur with nonzero exponent."""
        return {var_name(vid) for key in self._terms for vid, _ in key}

    # -- rendering ----------------------------------------------------

    def canonical(self) -> str:
        """Deterministic text form; ``parse`` inverts it exactly."""
        if not self._terms:
            return "0"
        # ids absent from self are 0 in every term and cannot change the order
        vids = sorted({vid for key in self._terms for vid, _ in key})

        def dense(key: Key) -> tuple:
            m = dict(key)
            return tuple(m.get(i, 0) for i in vids)

        items = sorted(self._terms.items(), key=lambda kv: dense(kv[0]),
                       reverse=True)
        parts = []
        for i, (key, c) in enumerate(items):
            body = _render_term(key, c)
            if i == 0:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

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
            f"cannot raise multi-term value {q} to power {Fraction(e4, 4)}")
    cache[(vid, e4)] = out
    return out


def state_sum(weights: list, cap: int, too_many: str, term) -> Polynomial:
    """Sum over all subsets S of range(len(weights)), given as bit masks, of
    prod(x_i for i in S) * prod(y_i for i not in S) * term(mask).

    ``weights`` lists one (x, y) pair per element.  More than ``cap``
    elements raise SizeLimit with ``too_many`` formatted with ``n`` and
    ``cap``.
    """
    n = len(weights)
    if n > cap:
        raise SizeLimit(too_many.format(n=n, cap=cap))
    terms: dict = {}
    for mask in range(1 << n):
        weight = ONE
        for i, (x, y) in enumerate(weights):
            weight = weight * (x if mask >> i & 1 else y)
        _accumulate(terms, (weight * term(mask))._terms.items())
    return Polynomial(terms)


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


def _render_term(key: Key, c: int) -> str:
    factors = []
    extras = [(vid, e4) for vid, e4 in key if vid >= _NUM_BUILTINS]
    builtin = [(vid, e4) for vid, e4 in key if vid < _NUM_BUILTINS]
    for vid, e4 in extras + builtin:
        factors.append(_render_factor(vid, e4))
    if not factors:
        return _decimal(abs(c))
    body = "*".join(factors)
    if abs(c) != 1:
        body = f"{_decimal(abs(c))}*{body}"
    return body


def _render_factor(vid: int, e4: int) -> str:
    name = _names[vid]
    if e4 == 4:
        return name
    f = Fraction(e4, 4)
    if f.denominator == 1:
        return f"{name}^{_decimal(f.numerator)}"
    return f"{name}^({_decimal(f.numerator)}/{f.denominator})"


# -- parsing ----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*^()/]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError(f"unexpected character at position {pos}: {rest[0]!r}")
        if m.group("num"):
            tokens.append(("num", m.group("num"), m.start()))
        elif m.group("name"):
            tokens.append(("name", m.group("name"), m.start()))
        else:
            tokens.append(("op", m.group("op"), m.start()))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def number(self, val: str, pos: int) -> int:
        try:
            return int(val)
        except ValueError:      # past the interpreter's integer-string limit
            raise ParseError(f"integer of {len(val)} digits at position {pos} "
                             f"is too long") from None

    def expect_op(self, op: str):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r} at position {pos} in {self.text!r}")

    def parse(self) -> Polynomial:
        terms = dict(self.term()._terms)
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.i += 1
                t = self.term()
                _accumulate(terms, (t if val == "+" else -t)._terms.items())
            elif kind is None:
                return Polynomial(terms)
            else:
                _, _, pos = self.peek()
                raise ParseError(f"unexpected token at position {pos} in {self.text!r}")

    def term(self) -> Polynomial:
        sign = 1
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.i += 1
                if val == "-":
                    sign = -sign
            else:
                break
        out = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.i += 1
                out = out * self.factor()
            else:
                break
        return out if sign == 1 else -out

    def factor(self) -> Polynomial:
        kind, val, pos = self.take()
        if kind == "num":
            return Polynomial.const(self.number(val, pos))
        if kind != "name":
            raise ParseError(f"expected a variable or number at position {pos} in {self.text!r}")
        name = val
        kind, op, _ = self.peek()
        if kind == "op" and op == "^":
            self.i += 1
            e4 = self.exponent()
        else:
            e4 = 4
        return Polynomial({((register(name), e4),): 1}) if e4 else ONE

    def exponent(self) -> int:
        kind, val, pos = self.peek()
        if kind == "op" and val == "(":
            self.i += 1
            e4 = self.signed_fraction()
            self.expect_op(")")
            return e4
        return self.signed_int() * 4

    def signed_int(self) -> int:
        sign = 1
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.i += 1
            sign = -1
        kind, val, pos = self.take()
        if kind != "num":
            raise ParseError(f"expected an integer at position {pos} in {self.text!r}")
        return sign * self.number(val, pos)

    def signed_fraction(self) -> int:
        num = self.signed_int()
        kind, val, _ = self.peek()
        den = 1
        if kind == "op" and val == "/":
            self.i += 1
            kind, val, pos = self.take()
            if kind != "num":
                raise ParseError(f"expected a denominator at position {pos} in {self.text!r}")
            den = self.number(val, pos)
            if not den:
                raise ParseError(f"zero denominator at position {pos} in {self.text!r}")
        f = Fraction(num, den) * 4
        if f.denominator != 1:
            raise ParseError(f"exponent {num}/{den} is not a quarter-integer")
        return int(f)


def parse(text: str) -> Polynomial:
    """Parse the textual polynomial grammar back into a value.

    Terms are joined by ``+``/``-``, factors by ``*``, exponents are
    ``^n`` or ``^(p/q)`` with q in {1, 2, 4}.
    """
    return _Parser(text).parse()
