"""The splitting homomorphism from the kp-strand algebra to a tensor product.

With strands of B_kp grouped into k blocks of p, the index i splits as
i = (q-1)p + r.  On generators the map is

    a_ij  ->  1 (x) a_{r_i r_j}            same block
    a_ij  ->  a_{q_i q_j} (x) 1            same offset
    a_ij  ->  0                            block and offset move oppositely
    a_ij  ->  a_{q_i q_j} (x) a_{r_i r_j}  block and offset move together

extended multiplicatively.  It intertwines cabling with the tensor product:
the left/right action matrices of a p-cable collapse entrywise to the small
matrix tensored with the identity, and the diagram with the module map on
strand kp+1 commutes letter by letter.  The verify_* functions check those
facts exactly and report per-entry differences.
"""

from __future__ import annotations

import functools
from typing import Mapping

from .action import (
    PhiMatrix,
    phi_left_direct,
    phi_matrices,
    star_decompose,
    sum_asc,
    sum_crossing,
    sum_desc,
)
from .braids import BraidWord, cable
from .checks import CheckReport, require_at_least
from .freealg import (
    Mon,
    NCPoly,
    SparsePoly,
    Word,
    check_ambient,
    check_word,
    conj_word,
    decode_gen,
    decode_word,
    encode_word,
    mon_key,
    word_text,
)


def split_index(i: int, p: int) -> tuple[int, int]:
    """Block q and offset r of a strand index i in 1..kp: i = (q-1)p + r."""
    q, r = divmod(i - 1, p)
    return q + 1, r + 1


TensorMon = tuple[Mon, Mon]


class TensorPoly(SparsePoly):
    """An element of (algebra on k) tensor (algebra on p), over the integers.

    A monomial is a pair of words, one per tensor factor, each encoded as in
    :mod:`augrank.freealg`; the ring arithmetic is
    :class:`augrank.freealg.SparsePoly`'s, applied factorwise.
    """

    __slots__ = ()
    _unit = ("", "")
    _cat = staticmethod(lambda m1, m2: (m1[0] + m2[0], m1[1] + m2[1]))
    _decode_mon = staticmethod(lambda mon: (decode_word(mon[0]), decode_word(mon[1])))
    _conj_mon = staticmethod(lambda mon: (conj_word(mon[0]), conj_word(mon[1])))
    _mon_key = staticmethod(lambda mon: (mon_key(mon[0]), mon_key(mon[1])))

    def __init__(self, k: int, p: int, terms: Mapping[TensorMon, int] | None = None):
        check_ambient(k, "tensor factor size")
        check_ambient(p, "tensor factor size")
        self._init((k, p), terms)

    @staticmethod
    def _check_mon(amb: tuple[int, int], mon) -> tuple[Word, Word]:
        (k, p), (ma, mb) = amb, mon
        return (
            check_word(ma, k, f"in the left factor of size {k}"),
            check_word(mb, p, f"in the right factor of size {p}"),
        )

    def _mon_text(self, mon: tuple[Word, Word]) -> str:
        return f"{word_text(mon[0]) or '1'}(x){word_text(mon[1]) or '1'}"

    @classmethod
    def zero(cls, k: int, p: int) -> "TensorPoly":
        return cls._raw((k, p), {})


def tensor_embed_left(x: NCPoly, p: int) -> TensorPoly:
    """x (x) 1."""
    return TensorPoly._raw((x.n, p), {(w, ""): c for w, c in x._terms.items()})


def split_gen(i: int, j: int, p: int) -> TensorMon | None:
    """The image of a_ij as (block word, offset word), or None where it is 0.

    Each word has at most one generator: the block part a_{q_i q_j} unless
    i and j share a block, the offset part a_{r_i r_j} unless they share an
    offset.
    """
    qi, ri = split_index(i, p)
    qj, rj = split_index(j, p)
    if (qi - qj) * (ri - rj) < 0:
        return None
    return (((qi, qj),) if qi != qj else (), ((ri, rj),) if ri != rj else ())


class _SplitTable(dict):
    """Character of a_ij -> split_gen's image as a pair of words, or None; filled once per character."""

    def __init__(self, p: int):
        self.p = p

    def __missing__(self, ch: str) -> tuple[Word, Word] | None:
        image = split_gen(*decode_gen(ch), self.p)
        if image is not None:
            image = (encode_word(image[0]), encode_word(image[1]))
        self[ch] = image
        return image


_split_table = functools.cache(_SplitTable)  # one table per p


def psi(x: NCPoly, k: int, p: int) -> TensorPoly:
    """Apply the splitting homomorphism to a polynomial on kp strands."""
    if x.n != k * p:
        raise ValueError(f"ambient {x.n} is not kp = {k * p}")
    table = _split_table(p)
    terms: dict[tuple[Word, Word], int] = {}
    for w, c in x._terms.items():
        ma = mb = ""
        for ch in w:
            image = table[ch]
            if image is None:
                break
            ma, mb = ma + image[0], mb + image[1]
        else:
            key = (ma, mb)
            acc = terms.get(key, 0) + c
            if acc:
                terms[key] = acc
            else:
                terms.pop(key, None)
    return TensorPoly._raw((k, p), terms)


def psi_star(x: NCPoly, k: int, p: int) -> dict[tuple[int, int], TensorPoly]:
    """Apply the splitting map to a left-module element on kp+1 strands.

    The result is written in the basis indexed by (block, offset): the value
    at (q, r) is the tensor coefficient of the basis vector coming from the
    strand (q-1)p + r.  Zero coefficients are left out.
    """
    if x.n != k * p + 1:
        raise ValueError(f"ambient {x.n} is not kp + 1 = {k * p + 1}")
    out: dict[tuple[int, int], TensorPoly] = {}
    for i, coeff in star_decompose(x, "L").items():
        image = psi(coeff, k, p)
        if image:
            out[split_index(i, p)] = image  # split_index is injective
    return out


# ---------------------------------------------------------------------------
# Exact verifiers
# ---------------------------------------------------------------------------


def _compare_split(report: CheckReport, big: PhiMatrix, small: PhiMatrix, p: int, **where) -> None:
    """Compare psi of each entry (i, j) of big with small (x) identity: small[q_i, q_j] (x) 1 or 0."""
    k, kp = small.n, big.n
    for i in range(1, kp + 1):
        qi, ri = split_index(i, p)
        for j in range(1, kp + 1):
            qj, rj = split_index(j, p)
            lhs = psi(big.at(i, j), k, p)
            rhs = tensor_embed_left(small.at(qi, qj), p) if ri == rj else TensorPoly.zero(k, p)
            report.compare(lhs, rhs, **where, i=i, j=j)


def verify_cable_matrix_split(alpha: BraidWord, p: int) -> CheckReport:
    """Check that both action matrices of the p-cable split as small (x) identity."""
    report = CheckReport(
        claim="cable action matrix splits as the small matrix tensor identity",
        parameters={"alpha": alpha.to_text(), "k": alpha.n, "p": p},
    )
    for side, big, small in zip("LR", phi_matrices(cable(alpha, p)), phi_matrices(alpha)):
        _compare_split(report, big, small, p, side=side)
    return report


def verify_commutes(n_gen: int, k: int, p: int) -> CheckReport:
    """Check the splitting map intertwines the cabled letter with letter (x) id.

    Row i of phi_left_direct is the action on a_{i,*}, read off the direct
    action rather than the letter fold.
    """
    if not 1 <= n_gen <= k - 1:
        raise ValueError(f"generator index {n_gen} out of range for B_{k}")
    sigma = BraidWord(k, (n_gen,))
    report = CheckReport(
        claim="splitting map commutes with the cabled letter action",
        parameters={"n_gen": n_gen, "k": k, "p": p},
    )
    _compare_split(report, phi_left_direct(cable(sigma, p)), phi_left_direct(sigma), p)
    return report


def verify_sum_collapse(n_gen: int, k: int, p: int) -> CheckReport:
    """Check the two-term collapse of the alternating window sums under splitting."""
    if not 1 <= n_gen <= k - 1:
        raise ValueError(f"generator index {n_gen} out of range for B_{k}")
    kp = k * require_at_least("p", p, 1)
    m = (n_gen - 1) * p + 1
    first = range(m, m + p)
    second = range(m + p, m + 2 * p)
    report = CheckReport(
        claim="alternating window sums collapse to two terms under splitting",
        parameters={"n_gen": n_gen, "k": k, "p": p},
    )
    g = lambda a, b, amb=kp: NCPoly.gen(amb, a, b)
    for i in range(1, kp + 2):
        for j in range(i + 1, kp + 2):
            if i <= (n_gen - 1) * p and j in first:
                # ascending sum collapses through the block anchor of i
                _, ri = split_index(i, p)
                anchor = (n_gen - 1) * p + ri
                lhs = psi(sum_asc(kp, i, j + p, m, p), k, p)
                rhs = psi(g(i, j + p) - g(i, anchor) * g(anchor, j + p), k, p)
                report.compare(lhs, rhs, case="ascending", i=i, j=j)
            elif i in first and j > (n_gen + 1) * p:
                amb = max(j, kp)  # j = kp+1 is the extra strand of the module
                split = psi_star if amb > kp else psi
                lhs = split(sum_desc(amb, i + p, j, m, p), k, p)
                rhs = split(g(i + p, j, amb) - g(i + p, i, amb) * g(i, j, amb), k, p)
                report.compare(lhs, rhs, case="descending", i=i, j="star" if amb > kp else j)
            elif i in first and j in second:
                delta = 0 if i == j - p else (1 if i > j - p else -1)
                lhs = psi(sum_crossing(kp, i + p, j - p, m, p), k, p)
                rhs_poly = -g(i + p, j - p)
                if delta:
                    rhs_poly = rhs_poly + delta * (g(i + p, i) * g(i, j - p))
                report.compare(lhs, psi(rhs_poly, k, p), case="crossing", i=i, j=j)
    return report
