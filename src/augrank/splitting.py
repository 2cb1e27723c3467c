"""The splitting homomorphism from the kp-strand algebra to a tensor product.

With strands of B_kp grouped into k blocks of p, the index i splits as
i = (q-1)p + r.  On generators the map is

    a_ij  ->  1 (x) a_{r_i r_j}            same block
    a_ij  ->  a_{q_i q_j} (x) 1            same offset
    a_ij  ->  0                            block and offset move oppositely
    a_ij  ->  a_{q_i q_j} (x) a_{r_i r_j}  block and offset move together

extended multiplicatively.  It intertwines cabling with the tensor product:
the left/right action matrices of a p-cable collapse entrywise to the small
matrix tensored with the identity, and the diagram with the starred module
map commutes letter by letter.  The verify_* functions check those facts
exactly and report per-entry differences.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

from .action import (
    phi,
    phi_matrices,
    star_decompose,
    sum_asc,
    sum_crossing,
    sum_desc,
)
from .braids import BraidWord, cable
from .freealg import Mon, NCPoly, _check_budget, mon_key, term_budget
from .reporting import CheckReport


def split_index(i: int, p: int) -> tuple[int, int]:
    """Block q and offset r of a strand index i in 1..kp: i = (q-1)p + r."""
    q, r = divmod(i - 1, p)
    return q + 1, r + 1


TensorMon = tuple[Mon, Mon]


class TensorPoly:
    """An element of (algebra on k) tensor (algebra on p), over the integers."""

    __slots__ = ("k", "p", "_terms")

    def __init__(self, k: int, p: int, terms: Mapping[TensorMon, int] | None = None):
        if k < 1 or p < 1:
            raise ValueError("tensor factor sizes must be >= 1")
        clean: dict[TensorMon, int] = {}
        if terms:
            for (ma, mb), c in terms.items():
                if c == 0:
                    continue
                ma = tuple((int(i), int(j)) for i, j in ma)
                mb = tuple((int(i), int(j)) for i, j in mb)
                for i, j in ma:
                    if i == j or not (1 <= i <= k) or not (1 <= j <= k):
                        raise ValueError(f"left factor a_{i},{j} invalid for size {k}")
                for i, j in mb:
                    if i == j or not (1 <= i <= p) or not (1 <= j <= p):
                        raise ValueError(f"right factor a_{i},{j} invalid for size {p}")
                key = (ma, mb)
                clean[key] = clean.get(key, 0) + int(c)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_terms", {t: c for t, c in clean.items() if c != 0})

    @classmethod
    def _raw(cls, k: int, p: int, terms: dict[TensorMon, int]) -> "TensorPoly":
        self = object.__new__(cls)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_terms", terms)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("TensorPoly is immutable")

    @classmethod
    def zero(cls, k: int, p: int) -> "TensorPoly":
        return cls._raw(k, p, {})

    @classmethod
    def one(cls, k: int, p: int) -> "TensorPoly":
        return cls._raw(k, p, {((), ()): 1})

    @property
    def terms(self) -> Mapping[TensorMon, int]:
        return MappingProxyType(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorPoly):
            return NotImplemented
        return self.k == other.k and self.p == other.p and self._terms == other._terms

    __hash__ = None

    def _require_compatible(self, other: "TensorPoly") -> None:
        if self.k != other.k or self.p != other.p:
            raise ValueError("tensor shape mismatch")

    def _combine(self, other, sign: int) -> "TensorPoly":
        # self + sign * other in one pass
        if not isinstance(other, TensorPoly):
            return NotImplemented
        self._require_compatible(other)
        terms = dict(self._terms)
        for t, c in other._terms.items():
            acc = terms.get(t, 0) + sign * c
            if acc:
                terms[t] = acc
            else:
                terms.pop(t, None)
        _check_budget(len(terms))
        return TensorPoly._raw(self.k, self.p, terms)

    def __add__(self, other) -> "TensorPoly":
        return self._combine(other, 1)

    def __neg__(self) -> "TensorPoly":
        return TensorPoly._raw(self.k, self.p, {t: -c for t, c in self._terms.items()})

    def __sub__(self, other) -> "TensorPoly":
        return self._combine(other, -1)

    def __mul__(self, other) -> "TensorPoly":
        if isinstance(other, int):
            if other == 0:
                return TensorPoly.zero(self.k, self.p)
            return TensorPoly._raw(self.k, self.p, {t: c * other for t, c in self._terms.items()})
        if not isinstance(other, TensorPoly):
            return NotImplemented
        self._require_compatible(other)
        budget = term_budget()
        terms: dict[TensorMon, int] = {}
        for (a1, b1), c1 in self._terms.items():
            _check_budget(len(terms), budget)
            for (a2, b2), c2 in other._terms.items():
                key = (a1 + a2, b1 + b2)
                acc = terms.get(key, 0) + c1 * c2
                if acc:
                    terms[key] = acc
                else:
                    terms.pop(key, None)
        _check_budget(len(terms), budget)
        return TensorPoly._raw(self.k, self.p, terms)

    def __rmul__(self, other) -> "TensorPoly":
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def conjugate(self) -> "TensorPoly":
        """Conjugation applied to each tensor factor."""
        conj = lambda mon: tuple((j, i) for i, j in reversed(mon))
        return TensorPoly._raw(
            self.k, self.p, {(conj(a), conj(b)): c for (a, b), c in self._terms.items()}
        )

    def render(self) -> str:
        if not self._terms:
            return "0"

        def side(mon: Mon, size: int) -> str:
            if not mon:
                return "1"
            return "*".join(
                f"a{i}{j}" if i <= 9 and j <= 9 else f"a{i},{j}" for i, j in mon
            )

        items = sorted(self._terms.items(), key=lambda tc: (mon_key(tc[0][0]), mon_key(tc[0][1])))
        pieces = []
        for (ma, mb), c in items:
            body = f"{side(ma, self.k)}(x){side(mb, self.p)}"
            mag = abs(c)
            text = body if mag == 1 else f"{mag}*{body}"
            pieces.append((c < 0, text))
        out = ("-" if pieces[0][0] else "") + pieces[0][1]
        for negative, text in pieces[1:]:
            out += (" - " if negative else " + ") + text
        return out

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"<TensorPoly {self.render()}>"


def tensor_embed_left(x: NCPoly, p: int) -> TensorPoly:
    """x (x) 1."""
    if x.star:
        raise ValueError("cannot embed a starred polynomial")
    return TensorPoly(x.n, p, {(mon, ()): c for mon, c in x.terms.items()})


def tensor_embed_right(x: NCPoly, k: int) -> TensorPoly:
    """1 (x) x."""
    if x.star:
        raise ValueError("cannot embed a starred polynomial")
    return TensorPoly(k, x.n, {((), mon): c for mon, c in x.terms.items()})


def psi_gen(i: int, j: int, k: int, p: int) -> TensorPoly:
    """Image of the generator a_ij of the kp-strand algebra."""
    if i == j or not (1 <= i <= k * p) or not (1 <= j <= k * p):
        raise ValueError(f"a_{i},{j} is not a generator for kp = {k * p}")
    qi, ri = split_index(i, p)
    qj, rj = split_index(j, p)
    if qi == qj:
        return TensorPoly(k, p, {((), ((ri, rj),)): 1})
    if ri == rj:
        return TensorPoly(k, p, {((((qi, qj),)), ()): 1})
    if (qi - qj) * (ri - rj) < 0:
        return TensorPoly.zero(k, p)
    return TensorPoly(k, p, {(((qi, qj),), ((ri, rj),)): 1})


def psi(x: NCPoly, k: int, p: int) -> TensorPoly:
    """Apply the splitting homomorphism to a polynomial on kp strands."""
    if x.star:
        raise ValueError("use psi_star for starred module elements")
    if x.n != k * p:
        raise ValueError(f"ambient {x.n} is not kp = {k * p}")
    terms: dict[TensorMon, int] = {}
    for mon, c in x.terms.items():
        ma: list[tuple[int, int]] = []
        mb: list[tuple[int, int]] = []
        dead = False
        for i, j in mon:
            qi, ri = split_index(i, p)
            qj, rj = split_index(j, p)
            if qi == qj:
                mb.append((ri, rj))
            elif ri == rj:
                ma.append((qi, qj))
            elif (qi - qj) * (ri - rj) < 0:
                dead = True
                break
            else:
                ma.append((qi, qj))
                mb.append((ri, rj))
        if dead:
            continue
        key = (tuple(ma), tuple(mb))
        acc = terms.get(key, 0) + c
        if acc:
            terms[key] = acc
        else:
            terms.pop(key, None)
    return TensorPoly._raw(k, p, terms)


def psi_star(x: NCPoly, k: int, p: int) -> dict[tuple[int, int], TensorPoly]:
    """Apply the starred splitting map to a left-module element.

    The result is written in the basis indexed by (block, offset): the value
    at (q, r) is the tensor coefficient of the basis vector coming from the
    strand (q-1)p + r.
    """
    if x.n != k * p:
        raise ValueError(f"ambient {x.n} is not kp = {k * p}")
    out: dict[tuple[int, int], TensorPoly] = {}
    for i, coeff in star_decompose(x).items():
        key = split_index(i, p)
        image = psi(coeff, k, p)
        if key in out:
            image = out[key] + image
        if image.is_zero():
            out.pop(key, None)
        else:
            out[key] = image
    return out


# ---------------------------------------------------------------------------
# Exact verifiers
# ---------------------------------------------------------------------------


def verify_cable_matrix_split(alpha: BraidWord, p: int) -> CheckReport:
    """Check that both action matrices of the p-cable split as small (x) identity."""
    k = alpha.n
    kp = k * p
    cabled = cable(alpha, p)
    diffs: list[dict] = []
    for side, big, small in zip("LR", phi_matrices(cabled), phi_matrices(alpha)):
        for i in range(1, kp + 1):
            qi, ri = split_index(i, p)
            for j in range(1, kp + 1):
                qj, rj = split_index(j, p)
                lhs = psi(big.at(i, j), k, p)
                if ri == rj:
                    rhs = tensor_embed_left(small.at(qi, qj), p)
                else:
                    rhs = TensorPoly.zero(k, p)
                if lhs != rhs:
                    diffs.append(
                        {"side": side, "i": i, "j": j, "lhs": lhs.render(), "rhs": rhs.render()}
                    )
    return CheckReport(
        claim="cable action matrix splits as the small matrix tensor identity",
        parameters={"alpha": alpha.to_text(), "k": k, "p": p},
        diffs=diffs,
    )


def verify_commutes(n_gen: int, k: int, p: int) -> CheckReport:
    """Check the splitting map intertwines the cabled letter with letter (x) id."""
    if not 1 <= n_gen <= k - 1:
        raise ValueError(f"generator index {n_gen} out of range for B_{k}")
    kp = k * p
    sigma = BraidWord(k, (n_gen,))
    cabled = cable(sigma, p)
    diffs: list[dict] = []
    for i in range(1, kp + 1):
        qi, ri = split_index(i, p)
        lhs = psi_star(phi(cabled, NCPoly.gen(kp, i, kp + 1, star=True)), k, p)
        small = phi(sigma, NCPoly.gen(k, qi, k + 1, star=True))
        rhs: dict[tuple[int, int], TensorPoly] = {}
        for l, coeff in star_decompose(small).items():
            emb = tensor_embed_left(coeff, p)
            if not emb.is_zero():
                rhs[(l, ri)] = emb
        for key in sorted(set(lhs) | set(rhs)):
            lval = lhs.get(key, TensorPoly.zero(k, p))
            rval = rhs.get(key, TensorPoly.zero(k, p))
            if lval != rval:
                diffs.append(
                    {
                        "basis": i,
                        "target": list(key),
                        "lhs": lval.render(),
                        "rhs": rval.render(),
                    }
                )
    return CheckReport(
        claim="splitting map commutes with the cabled letter action",
        parameters={"n_gen": n_gen, "k": k, "p": p},
        diffs=diffs,
    )


def verify_sum_collapse(n_gen: int, k: int, p: int) -> CheckReport:
    """Check the two-term collapse of the alternating window sums under splitting."""
    if not 1 <= n_gen <= k - 1:
        raise ValueError(f"generator index {n_gen} out of range for B_{k}")
    kp = k * p
    m = (n_gen - 1) * p + 1
    first = range(m, m + p)
    second = range(m + p, m + 2 * p)
    diffs: list[dict] = []

    def record(case: str, i: int, j: int, lhs, rhs) -> None:
        if lhs != rhs:
            diffs.append({"case": case, "i": i, "j": j, "lhs": lhs.render(), "rhs": rhs.render()})

    g = lambda a, b, star=False: NCPoly.gen(kp, a, b, star=star)
    for i in range(1, kp + 2):
        for j in range(i + 1, kp + 2):
            if i <= (n_gen - 1) * p and j in first:
                # ascending sum collapses through the block anchor of i
                _, ri = split_index(i, p)
                anchor = (n_gen - 1) * p + ri
                lhs = psi(sum_asc(kp, i, j + p, m, p), k, p)
                rhs = psi(g(i, j + p) - g(i, anchor) * g(anchor, j + p), k, p)
                record("ascending", i, j, lhs, rhs)
            elif i in first and j > (n_gen + 1) * p:
                starred = j == kp + 1
                lhs_poly = sum_desc(kp, i + p, j, m, p, star=starred)
                rhs_poly = g(i + p, j, star=starred) - g(i + p, i, star=starred) * g(
                    i, j, star=starred
                )
                if starred:
                    lhs, rhs = psi_star(lhs_poly, k, p), psi_star(rhs_poly, k, p)
                    if lhs != rhs:
                        diffs.append(
                            {
                                "case": "descending",
                                "i": i,
                                "j": "star",
                                "lhs": {str(t): v.render() for t, v in lhs.items()},
                                "rhs": {str(t): v.render() for t, v in rhs.items()},
                            }
                        )
                else:
                    record("descending", i, j, psi(lhs_poly, k, p), psi(rhs_poly, k, p))
            elif i in first and j in second:
                delta = 0 if i == j - p else (1 if i > j - p else -1)
                lhs = psi(sum_crossing(kp, i + p, j - p, m, p), k, p)
                rhs_poly = -g(i + p, j - p)
                if delta:
                    rhs_poly = rhs_poly + delta * (g(i + p, i) * g(i, j - p))
                record("crossing", i, j, lhs, psi(rhs_poly, k, p))
    return CheckReport(
        claim="alternating window sums collapse to two terms under splitting",
        parameters={"n_gen": n_gen, "k": k, "p": p},
        diffs=diffs,
    )
