"""Exact arithmetic in the free unital Z-algebra on generators a_ij, i != j.

Values carry their ambient strand count ``n``.  A value created with
``star=True`` lives in the algebra extended by one distinguished slot at
index n+1 (used for module computations over an extra strand); the slot is
only ever legal on starred values, so a plain index leaking into or out of
the extension is caught by the ambient checks.

Coefficients are Python ints, so all arithmetic is exact at any size.
Symbolic products abort with :class:`TermBudgetError` once a result exceeds
the monomial budget (default 10^6, overridable via the ``KCH_TERM_BUDGET``
environment variable or :func:`set_term_budget`).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

Gen = tuple[int, int]
Mon = tuple[Gen, ...]

DEFAULT_TERM_BUDGET = 1_000_000
TERM_BUDGET_ENV = "KCH_TERM_BUDGET"
_budget_override: int | None = None


class TermBudgetError(RuntimeError):
    """Raised when a symbolic result would exceed the monomial budget."""


def term_budget() -> int:
    if _budget_override is not None:
        return _budget_override
    raw = os.environ.get(TERM_BUDGET_ENV)
    return int(raw) if raw else DEFAULT_TERM_BUDGET


def set_term_budget(budget: int | None) -> None:
    """Override the monomial budget in-process; None restores env/default."""
    global _budget_override
    _budget_override = budget


def _check_budget(size: int, budget: int | None = None) -> None:
    """Raise if size exceeds the budget; callers in a loop read the budget once."""
    if budget is None:
        budget = term_budget()
    if size > budget:
        raise TermBudgetError(
            f"symbolic result reached {size} monomials, over the budget of "
            f"{budget}; raise {TERM_BUDGET_ENV} or use the numeric path"
        )


def mon_key(mon: Mon) -> tuple:
    """Total order on monomials: degree, then lexicographic on flat indices."""
    return (len(mon), tuple(x for g in mon for x in g))


class NCPoly:
    """An element of the free algebra: a finite int combination of monomials."""

    __slots__ = ("n", "star", "_terms")

    def __init__(self, n: int, terms: Mapping[Mon, int] | None = None, *, star: bool = False):
        if n < 1:
            raise ValueError(f"ambient size must be >= 1, got {n}")
        clean: dict[Mon, int] = {}
        if terms:
            top = n + 1 if star else n
            for mon, c in terms.items():
                if c == 0:
                    continue
                mon = tuple((int(i), int(j)) for i, j in mon)
                for i, j in mon:
                    if i == j or not (1 <= i <= top) or not (1 <= j <= top):
                        raise ValueError(
                            f"generator a_{i},{j} invalid in ambient {n}"
                            f"{'+star' if star else ''}"
                        )
                clean[mon] = clean.get(mon, 0) + int(c)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "star", star)
        object.__setattr__(self, "_terms", {m: c for m, c in clean.items() if c != 0})

    @classmethod
    def _raw(cls, n: int, star: bool, terms: dict[Mon, int]) -> "NCPoly":
        # Internal fast path: terms are assumed validated and zero-free.
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "star", star)
        object.__setattr__(self, "_terms", terms)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("NCPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int, *, star: bool = False) -> "NCPoly":
        return cls._raw(n, star, {})

    @classmethod
    def one(cls, n: int, *, star: bool = False) -> "NCPoly":
        return cls._raw(n, star, {(): 1})

    @classmethod
    def const(cls, n: int, c: int, *, star: bool = False) -> "NCPoly":
        return cls._raw(n, star, {(): int(c)} if c else {})

    @classmethod
    def gen(cls, n: int, i: int, j: int, *, star: bool = False) -> "NCPoly":
        return cls(n, {((i, j),): 1}, star=star)

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> Mapping[Mon, int]:
        return MappingProxyType(self._terms)

    def sorted_terms(self) -> list[tuple[Mon, int]]:
        return sorted(self._terms.items(), key=lambda mc: mon_key(mc[0]))

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {(): 1}

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCPoly):
            return NotImplemented
        return (
            self.n == other.n
            and self.star == other.star
            and self._terms == other._terms
        )

    __hash__ = None  # mutable-dict backed; not hashable

    def _require_compatible(self, other: "NCPoly") -> None:
        if self.n != other.n or self.star != other.star:
            raise ValueError(
                f"ambient mismatch: {self.n}{'+star' if self.star else ''} vs "
                f"{other.n}{'+star' if other.star else ''}"
            )

    # -- ring operations ---------------------------------------------------

    def _combine(self, other, sign: int) -> "NCPoly":
        # self + sign * other in one pass
        if isinstance(other, int):
            other = NCPoly.const(self.n, other, star=self.star)
        if not isinstance(other, NCPoly):
            return NotImplemented
        self._require_compatible(other)
        terms = dict(self._terms)
        for mon, c in other._terms.items():
            acc = terms.get(mon, 0) + sign * c
            if acc:
                terms[mon] = acc
            else:
                terms.pop(mon, None)
        _check_budget(len(terms))
        return NCPoly._raw(self.n, self.star, terms)

    def __add__(self, other) -> "NCPoly":
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "NCPoly":
        return NCPoly._raw(self.n, self.star, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "NCPoly":
        return self._combine(other, -1)

    def __rsub__(self, other) -> "NCPoly":
        return (-self) + other

    def __mul__(self, other) -> "NCPoly":
        if isinstance(other, int):
            if other == 0:
                return NCPoly.zero(self.n, star=self.star)
            return NCPoly._raw(self.n, self.star, {m: c * other for m, c in self._terms.items()})
        if not isinstance(other, NCPoly):
            return NotImplemented
        self._require_compatible(other)
        budget = term_budget()
        terms: dict[Mon, int] = {}
        for m1, c1 in self._terms.items():
            # abort before the term map grows far past the budget
            _check_budget(len(terms), budget)
            for m2, c2 in other._terms.items():
                mon = m1 + m2
                acc = terms.get(mon, 0) + c1 * c2
                if acc:
                    terms[mon] = acc
                else:
                    terms.pop(mon, None)
        _check_budget(len(terms), budget)
        return NCPoly._raw(self.n, self.star, terms)

    def __rmul__(self, other) -> "NCPoly":
        if isinstance(other, int):
            return self * other
        return NotImplemented

    # -- conjugation and evaluation -----------------------------------------

    def conjugate(self) -> "NCPoly":
        """The Z-linear anti-automorphism: reverse each word, swap each a_ij to a_ji."""
        terms = {
            tuple((j, i) for i, j in reversed(mon)): c for mon, c in self._terms.items()
        }
        return NCPoly._raw(self.n, self.star, terms)

    def evaluate(self, values: Mapping[Gen, complex]) -> complex:
        """Substitute complex values for the generators and multiply out."""
        total = 0j
        for mon, c in self._terms.items():
            prod = complex(c)
            for g in mon:
                try:
                    prod *= values[g]
                except KeyError:
                    raise ValueError(f"no value assigned to generator a_{g[0]},{g[1]}") from None
            total += prod
        return total

    # -- text form -----------------------------------------------------------

    def _gen_str(self, g: Gen) -> str:
        def part(t: int) -> str:
            if self.star and t == self.n + 1:
                return "s"
            return str(t)

        si, sj = part(g[0]), part(g[1])
        if len(si) == 1 and len(sj) == 1:
            return f"a{si}{sj}"
        return f"a{si},{sj}"

    def render(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for mon, c in self.sorted_terms():
            body = "*".join(self._gen_str(g) for g in mon)
            mag = abs(c)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            pieces.append((c < 0, text))
        out = ("-" if pieces[0][0] else "") + pieces[0][1]
        for negative, text in pieces[1:]:
            out += (" - " if negative else " + ") + text
        return out

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"<NCPoly {self.render()}>"


_GEN_RE = re.compile(r"a(?:([0-9s])([0-9s])|([0-9]+|s),([0-9]+|s))$")


def parse_poly(n: int, text: str, *, star: bool = False) -> NCPoly:
    """Parse the canonical rendering back into a polynomial."""

    def parse_index(tok: str) -> int:
        if tok == "s":
            if not star:
                raise ValueError("star index in a non-star ambient")
            return n + 1
        return int(tok)

    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    s = s.replace("-", "+-")
    total = NCPoly.zero(n, star=star)
    for chunk in s.split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:].strip()
        coeff = sign
        mon: list[Gen] = []
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"malformed term in {text!r}")
            if factor[0] == "a":
                m = _GEN_RE.match(factor)
                if not m:
                    raise ValueError(f"malformed generator {factor!r}")
                toks = [t for t in m.groups() if t is not None]
                mon.append((parse_index(toks[0]), parse_index(toks[1])))
            else:
                coeff *= int(factor)
        total = total + NCPoly(n, {tuple(mon): coeff}, star=star)
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
        wanted = {(i, j) for i in range(1, self.n + 1) for j in range(1, self.n + 1) if i != j}
        values = {tuple(k): complex(v) for k, v in dict(self.values).items()}
        if set(values) != wanted:
            missing = wanted - set(values)
            extra = set(values) - wanted
            raise ValueError(
                f"assignment must cover exactly the {len(wanted)} generators of the "
                f"ambient algebra (missing {sorted(missing)}, extra {sorted(extra)})"
            )
        object.__setattr__(self, "values", MappingProxyType(values))
        object.__setattr__(self, "lam", complex(self.lam))
        object.__setattr__(self, "mu", complex(self.mu))

    def value(self, i: int, j: int) -> complex:
        return self.values[(i, j)]

    def evaluate(self, x: NCPoly) -> complex:
        if x.n != self.n or x.star:
            raise ValueError("assignment ambient does not match polynomial ambient")
        return x.evaluate(self.values)

    def swap_conjugate(self) -> "Assignment":
        """The assignment sending a_ij to the old value of a_ji (lambda, mu kept)."""
        return Assignment(
            self.n,
            {(j, i): v for (i, j), v in self.values.items()},
            self.lam,
            self.mu,
        )


def evaluate(x: NCPoly, eps: Assignment) -> complex:
    return eps.evaluate(x)


def conjugate(x: NCPoly) -> NCPoly:
    return x.conjugate()
