"""Exact arithmetic in the free unital Z-algebra on generators a_ij, i != j.

Values carry their ambient strand count ``n``.  Module computations over an
extra strand live on n+1 strands, so an index past the ambient is caught by
the ambient checks.

Coefficients are Python ints, so all arithmetic is exact at any size.
Symbolic products abort with :class:`TermBudgetError` once a result exceeds
the monomial budget (default 10^6, overridable via the ``KCH_TERM_BUDGET``
environment variable, which must hold a positive integer).  Every product
runs :meth:`SparsePoly._add_product` (terms += sign * a * b, the budget
checked on the growing map before each term of a and at the end): ``*``,
each entry of :func:`augrank.action.mat_mul` and the symbolic letter fold's
update y - a*b; a loop of them reads the budget once and passes it down.

The ring arithmetic is written once, in :class:`SparsePoly`; :class:`NCPoly`
supplies the free algebra's monomials (words of generators), and
:class:`augrank.splitting.TensorPoly` supplies pairs of words.

Inside a polynomial a word is a ``str`` with one character per generator:
a_ij is ``chr(0x10000 + (i << 10 | j))``.  A str caches its hash and
concatenates with one copy, so the term maps of products and folds hash
and join words in C.  The code is monotone in (i, j), so comparing two
words of one length compares their flat index sequences; the offset keeps
every code above the surrogates, so any word encodes as UTF-8.  Ten bits
per index cap the free algebra at :data:`MAX_STRANDS` = 1023 strands: a
larger ambient is an error before any generator is built.  The public
forms stay tuples of (i, j) pairs: constructors take them (:func:`check_word`
validates and encodes), and :attr:`SparsePoly.terms` returns them
(:func:`decode_word`).  The numeric pipeline never builds a polynomial and
has no such limit.
"""

from __future__ import annotations

import itertools
import operator
import os
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping

Gen = tuple[int, int]
Mon = tuple[Gen, ...]  # the public monomial
Word = str  # the internal monomial: one character per generator

MAX_STRANDS = 1023
_CODE_BASE = 0x10000  # above the surrogates, which UTF-8 cannot encode


def gen_order(n: int) -> Iterator[Gen]:
    """The generators a_ij of the n-strand algebra, row by row; lazy: n can come from a file."""
    return ((i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j)


DEFAULT_TERM_BUDGET = 1_000_000
TERM_BUDGET_ENV = "KCH_TERM_BUDGET"


class TermBudgetError(RuntimeError):
    """Raised when a symbolic result would exceed the monomial budget."""


def term_budget() -> int:
    raw = os.environ.get(TERM_BUDGET_ENV)
    if not raw:
        return DEFAULT_TERM_BUDGET
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError(f"{TERM_BUDGET_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


def _check_budget(size: int, budget: int | None = None) -> None:
    """Raise if size exceeds the budget; callers in a loop read the budget once."""
    if budget is None:
        budget = term_budget()
    if size > budget:
        raise TermBudgetError(
            f"symbolic result reached {size} monomials, over the budget of "
            f"{budget}; raise {TERM_BUDGET_ENV} or use the numeric path"
        )


def check_ambient(n: int, what: str = "ambient size") -> None:
    """1 <= n <= MAX_STRANDS, or a ValueError naming what n is."""
    if n < 1:
        raise ValueError(f"{what} must be >= 1, got {n}")
    if n > MAX_STRANDS:
        raise ValueError(f"{what} {n} is over the free algebra's limit of {MAX_STRANDS} strands")


def encode_gen(i: int, j: int) -> str:
    """The character of a_ij; 1 <= i, j <= MAX_STRANDS."""
    return chr(_CODE_BASE + (i << 10 | j))


def decode_gen(ch: str) -> Gen:
    code = ord(ch) - _CODE_BASE
    return code >> 10, code & 1023


def encode_word(mon: Mon) -> Word:
    return "".join(encode_gen(i, j) for i, j in mon)


def decode_word(w: Word) -> Mon:
    return tuple(map(decode_gen, w))


def mon_key(w: Word) -> tuple:
    """Total order on words: degree, then lexicographic on flat indices."""
    return (len(w), w)


def check_word(mon, top: int, where: str) -> Word:
    """A monomial given as int pairs, encoded; each a_ij needs i != j, both in 1..top."""
    mon = tuple((int(i), int(j)) for i, j in mon)
    for i, j in mon:
        if i == j or not (1 <= i <= top) or not (1 <= j <= top):
            raise ValueError(f"generator a_{i},{j} invalid {where}")
    return encode_word(mon)


class _Swap(dict):
    """str.translate table a_ij -> a_ji, filled one code at a time."""

    def __missing__(self, code: int) -> int:
        i, j = decode_gen(chr(code))
        self[code] = swapped = ord(encode_gen(j, i))
        return swapped


_SWAP = _Swap()


def conj_word(w: Word) -> Word:
    """Reverse the word and swap each a_ij to a_ji."""
    return w[::-1].translate(_SWAP)


def word_text(w: Word) -> str:
    """Generators joined by '*': a12, or a10,11 past one digit."""
    return "*".join(f"a{i}{j}" if i < 10 and j < 10 else f"a{i},{j}" for i, j in map(decode_gen, w))


def _int_coefficient(mon, c) -> int:
    """c as an int; a coefficient that is not an integer is an error, never truncated."""
    try:
        return operator.index(c)
    except TypeError:
        raise TypeError(f"coefficient of monomial {mon!r} must be an integer, got {c!r}") from None


class SparsePoly:
    """A finite integer combination of monomials: the ring core of NCPoly and TensorPoly.

    A value is immutable and carries an ambient ``_amb`` (a tuple); operands
    of a sum or product must share it.  Terms live in a dict ``_terms`` from
    monomial to nonzero coefficient.  A monomial is a str word with one
    character per generator, as in the module docstring (a pair of words in
    TensorPoly), so a term product is a str concatenation and a key lookup
    hashes no tuple; ambients that hold words have at most MAX_STRANDS = 1023
    strands.  A subclass supplies what depends on its monomials: ``_unit``
    (the empty monomial), ``_check_mon`` (validate and encode a public
    monomial for an ambient), ``_decode_mon`` (back to the public form),
    ``_cat`` (the monomial product), ``_conj_mon`` (conjugation), and
    ``_mon_key``/``_mon_text`` (render order and text).
    """

    __slots__ = ("_amb", "_terms")
    _unit = ""

    def _init(self, amb: tuple, terms: Mapping | None) -> None:
        clean: dict = {}
        for mon, c in (terms or {}).items():
            c = _int_coefficient(mon, c)
            if c == 0:
                continue
            mon = self._check_mon(amb, mon)
            clean[mon] = clean.get(mon, 0) + c
        object.__setattr__(self, "_amb", amb)
        object.__setattr__(self, "_terms", {m: c for m, c in clean.items() if c != 0})

    @classmethod
    def _raw(cls, amb: tuple, terms: dict):
        # Internal fast path: terms are assumed validated and zero-free.
        self = object.__new__(cls)
        object.__setattr__(self, "_amb", amb)
        object.__setattr__(self, "_terms", terms)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> Mapping:
        """A read-only copy of the term map, in public monomials and insertion order."""
        decode = self._decode_mon
        return MappingProxyType({decode(m): c for m, c in self._terms.items()})

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._amb == other._amb and self._terms == other._terms

    __hash__ = None  # mutable-dict backed; not hashable

    def _require_compatible(self, other: "SparsePoly") -> None:
        if self._amb != other._amb:
            raise ValueError(f"ambient mismatch: {self._amb} vs {other._amb}")

    # -- ring operations ---------------------------------------------------

    def _combine(self, other, sign: int):
        # self + sign * other in one pass
        if isinstance(other, int):
            other = self._raw(self._amb, {self._unit: other} if other else {})
        if type(other) is not type(self):
            return NotImplemented
        self._require_compatible(other)
        if not other._terms:
            return self
        terms = dict(self._terms)
        for mon, c in other._terms.items():
            acc = terms.get(mon, 0) + sign * c
            if acc:
                terms[mon] = acc
            else:
                terms.pop(mon, None)
        _check_budget(len(terms))
        return self._raw(self._amb, terms)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self._raw(self._amb, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            terms = {m: c * other for m, c in self._terms.items()} if other else {}
            return self._raw(self._amb, terms)
        if type(other) is not type(self):
            return NotImplemented
        self._require_compatible(other)
        if not (self._terms and other._terms):
            return self._raw(self._amb, {})
        return self._raw(self._amb, self._add_product({}, self, other, 1, term_budget()))

    def _add_product(self, terms: dict, a, b, sign: int, budget: int) -> dict:
        # terms += sign * a * b in place, checking the budget as the map grows
        cat, get, pairs = self._cat, terms.get, b._terms.items()
        for m1, c1 in a._terms.items():
            # abort before the term map grows far past the budget
            _check_budget(len(terms), budget)
            c1 *= sign
            for m2, c2 in pairs:
                mon = cat(m1, m2)
                acc = get(mon, 0) + c1 * c2
                if acc:
                    terms[mon] = acc
                else:
                    del terms[mon]  # c1 * c2 != 0, so mon was present
        _check_budget(len(terms), budget)
        return terms

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def conjugate(self):
        """The Z-linear anti-automorphism: reverse each word, swap each a_ij to a_ji."""
        conj = self._conj_mon
        return self._raw(self._amb, {conj(mon): c for mon, c in self._terms.items()})

    # -- text form -----------------------------------------------------------

    def render(self) -> str:
        if not self._terms:
            return "0"
        out, key = "", self._mon_key
        for mon, c in sorted(self._terms.items(), key=lambda mc: key(mc[0])):
            body = self._mon_text(mon)
            mag = abs(c)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            if out:
                out += (" - " if c < 0 else " + ") + text
            else:
                out = ("-" if c < 0 else "") + text
        return out

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.render()}>"


class NCPoly(SparsePoly):
    """An element of the free algebra: a finite int combination of monomials."""

    __slots__ = ()
    _cat = staticmethod(operator.add)
    _decode_mon = staticmethod(decode_word)
    _conj_mon = staticmethod(conj_word)
    _mon_key = staticmethod(mon_key)
    _mon_text = staticmethod(word_text)

    def __init__(self, n: int, terms: Mapping[Mon, int] | None = None):
        check_ambient(n)
        self._init((n,), terms)

    @staticmethod
    def _check_mon(amb: tuple[int], mon) -> Word:
        return check_word(mon, amb[0], f"in ambient {amb[0]}")

    # NCPoly's sum and product are bound in its own namespace, apart from
    # TensorPoly's: perfbench/layers.py wraps them through vars(NCPoly).
    __add__ = __radd__ = SparsePoly.__add__
    __mul__ = SparsePoly.__mul__

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "NCPoly":
        check_ambient(n)
        return cls._raw((n,), {})

    @classmethod
    def one(cls, n: int) -> "NCPoly":
        check_ambient(n)
        return cls._raw((n,), {"": 1})

    @classmethod
    def gen(cls, n: int, i: int, j: int) -> "NCPoly":
        return cls(n, {((i, j),): 1})

    @property
    def n(self) -> int:
        return self._amb[0]

    def evaluate(self, values: Mapping[Gen, complex]) -> complex:
        """Substitute complex values for the generators and multiply out."""
        total = 0j
        for w, c in self._terms.items():
            prod = complex(c)
            for g in map(decode_gen, w):
                try:
                    prod *= values[g]
                except KeyError:
                    raise ValueError(f"no value assigned to generator a_{g[0]},{g[1]}") from None
            total += prod
        return total


@dataclass(frozen=True)
class Assignment:
    """Complex values for every generator of the ambient algebra, plus lambda, mu."""

    n: int
    values: Mapping[Gen, complex]
    lam: complex
    mu: complex

    def __post_init__(self) -> None:
        if self.lam == 0 or self.mu == 0:
            raise ValueError("lambda and mu must be nonzero")
        n, wanted = self.n, self.n * (self.n - 1)
        values = {tuple(k): complex(v) for k, v in dict(self.values).items()}
        extra = sorted(g for g in values if not (g[0] != g[1] and 1 <= min(g) and max(g) <= n))
        if extra or len(values) != wanted:
            # name a few generators only: n comes from input and n^2 can be huge
            missing = list(itertools.islice((g for g in gen_order(n) if g not in values), 3))
            raise ValueError(
                f"assignment must cover exactly the {wanted} generators of the ambient "
                f"algebra, got {len(values)} (missing {wanted - len(values) + len(extra)} "
                f"{missing}, extra {len(extra)} {extra[:3]})"
            )
        object.__setattr__(self, "values", MappingProxyType(values))
        object.__setattr__(self, "lam", complex(self.lam))
        object.__setattr__(self, "mu", complex(self.mu))

    def value(self, i: int, j: int) -> complex:
        return self.values[(i, j)]
