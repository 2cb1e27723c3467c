"""The braid action on the free algebra and its left/right action matrices.

The positive generator sigma_k acts on generators by the substitution

    a_ij      -> a_ij                       i, j not in {k, k+1}
    a_{k+1,i} -> a_ki                       i not in {k, k+1}
    a_{i,k+1} -> a_ik                       i not in {k, k+1}
    a_{k,k+1} -> -a_{k+1,k}
    a_{k+1,k} -> -a_{k,k+1}
    a_ki      -> a_{k+1,i} - a_{k+1,k} a_ki
    a_ik      -> a_{i,k+1} - a_ik a_{k,k+1}

extended multiplicatively.  Words act with the leftmost letter outermost:
act(b1 * b2, x) == act(b1, act(b2, x)), which is exactly the convention under
which the chain rule below holds.  The substitution for a negative letter is
obtained by formally inverting the table above; it is pinned down by the
round-trip property act(inverse letter, act(letter, x)) == x, which the test
suite certifies.

For beta in B_n, extending by an untouched strand at n+1 and acting on the
module spanned by a_{1,n+1}..a_{n,n+1} (resp. a_{n+1,1}..a_{n+1,n}) yields the
n x n matrices over the algebra computed by :func:`phi_matrices`.  They obey
the chain rule

    PhiL(b1 b2) = act(b1, PhiL(b2)) . PhiL(b1)
    PhiR(b1 b2) = PhiR(b1) . act(b1, PhiR(b2))

With b1 a prefix P and b2 one letter e, this is a left-to-right fold:

    PhiL(P e) = act(P, PhiL(e)) . PhiL(P)
    PhiR(P e) = PhiR(P) . act(P, PhiR(e))

PhiL(e) and PhiR(e) are the identity outside a 2 x 2 block whose only
non-constant entry is one generator, so the fold only needs the images
v[i-1, j-1] = act(P, a_ij) of the generators, carried forward with the
matrices.  All three live in one block array [[PhiL(P), v], [0, PhiR(P)]]:
a letter on strands s, t changes rows s, t of v the way it changes rows s, t
of PhiL, and columns s, t of v the way it changes columns s, t of PhiR.  So
one letter is one row operation on rows s, t, one column operation on
columns n+s, n+t and a 2 x 2 patch of v: O(n) in-place updates y -= a*b.
Rows and columns are relabelled, not moved: a letter relabels rows s, t of
[PhiL | v] and columns s, t of [v ; PhiR] alike, so one stored position per
strand serves both, and the matrices are read out through the final
positions, which are the word's strand permutation.

Zeros are the fold's only way to skip work nothing reads: in the free
algebra an update y -= a*b with a zero factor returns y at once.  A
strand's row of v is read only by the column operations that update that
row, its column only by the row operations that update that column, and
neither reaches PhiL, PhiR or a letter's v_ts, v_st.  So right after a
strand's last letter (right after the seed, for a strand that no letter
touches) the fold sets its row and column of v to zero, and the matrices
are exactly unchanged.  Only the two strands of the last letter are left,
and that letter's patch sets aside and zeroes their v_ts, v_st, so all of v
is zero while its operations run and the images, which can grow far past
any matrix entry, are not updated.  A caller that wants one side seeds the
other with zeros instead of the identity: PhiL reads v and its own rows,
never PhiR, and the other way round, so the side not asked for stays zero
and every update of it is a zero product.  On criterion 06's 3-cable of
sigma1^3 in B9 the zeros cut the fold's term products from 1530344 to
465704 and its largest product from 32282 to 16076 terms; on
cable(T(3,4), 2) one side costs 13546 term products where both cost 24392.

:func:`_plan` works the positions out once per word: per letter, the two it
steps (sigma_k^-1's swap of the strands applied) and those zeroed right
after it, the positions idle from the start and the final order.
:func:`_letter_step` is that step, arithmetic only, written once for numpy
arrays over any ring, and :func:`fold_block` the whole fold for every ring:
the seed (batch axes last; the lower-left block, which nothing reads, left
unset), one loop over the plan and the read-out of the sides asked for.  A
ring enters with its one, its zero and its in-place y -= a*b: NCPoly objects
here, each y - a*b summed into a copy of y's terms by
:meth:`augrank.freealg.SparsePoly._add_product`, the loop behind ``*`` and
:func:`mat_mul` (one budget read per fold; a zero a or b leaves y), and
batched complex numbers in :func:`augrank.augment.eval_phi_matrices`.  In
the free algebra the order of the factors matters: rows are multiplied on
the left, columns on the right.

The oracles stay independent of the fold: :func:`phi_left_direct` and
:func:`phi_right_direct` read the matrices off the action of beta, included in
B_{n+1}, on a_{i,n+1} and a_{n+1,i}, :func:`chain_compose` composes with
:func:`phi` and :func:`mat_mul`, and phi_right is the transpose of the
entrywise conjugate of phi_left.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from .braids import BraidWord, include_bar
from .freealg import (
    Mon,
    NCPoly,
    Word,
    _check_budget,
    decode_gen,
    encode_gen,
    gen_order,
    term_budget,
    word_text,
)

# ---------------------------------------------------------------------------
# The action on polynomials
# ---------------------------------------------------------------------------

_Image = tuple[tuple[int, Word], ...]


@functools.cache  # a constant table per (n, k, sign); phi_letter calls it once per letter
def _letter_images(n: int, k: int, inverse: bool) -> dict[str, _Image]:
    """Substitution table for one letter, keyed by character, only for the generators it moves."""
    others = [t for t in range(1, n + 1) if t not in (k, k + 1)]
    K, K1 = (k + 1, k) if inverse else (k, k + 1)  # sigma_k^-1 swaps strands k and k+1
    g = encode_gen
    imgs: dict[str, _Image] = {
        g(K, K1): ((-1, g(K1, K)),),
        g(K1, K): ((-1, g(K, K1)),),
    }
    for i in others:
        imgs[g(K1, i)] = ((1, g(K, i)),)
        imgs[g(i, K1)] = ((1, g(i, K)),)
        imgs[g(K, i)] = ((1, g(K1, i)), (-1, g(K1, K) + g(K, i)))
        imgs[g(i, K)] = ((1, g(i, K1)), (-1, g(i, K) + g(K, K1)))
    return imgs


def phi_letter(e: int, x: NCPoly) -> NCPoly:
    """Apply the substitution of a single signed letter to a polynomial."""
    k = abs(e)
    if not 1 <= k <= x.n - 1:
        raise ValueError(f"letter {e} out of range for ambient {x.n}")
    imgs = _letter_images(x.n, k, e < 0)
    budget = term_budget()
    out: dict[Word, int] = {}
    for w, coeff in x._terms.items():
        _check_budget(len(out), budget)
        partial, kept = [("", coeff)], 0  # partial expands w[:kept]; a run of unmoved characters is one slice
        for i, ch in enumerate(w):
            img = imgs.get(ch)
            if img:
                run = w[kept:i]
                partial = [(m + run + frag, c * ci) for m, c in partial for ci, frag in img]
                kept = i + 1
        run = w[kept:]
        for m, c in partial:
            m += run
            acc = out.get(m, 0) + c
            if acc:
                out[m] = acc
            else:
                out.pop(m, None)
    _check_budget(len(out), budget)
    return NCPoly._raw(x._amb, out)


def phi(beta: BraidWord, x: NCPoly) -> NCPoly:
    """Act by a braid word; the leftmost letter is applied last."""
    if beta.n != x.n:
        raise ValueError(f"braid in B_{beta.n} cannot act on ambient {x.n}")
    for e in reversed(beta.letters):
        x = phi_letter(e, x)
    return x


# ---------------------------------------------------------------------------
# Module decomposition over the top strand
# ---------------------------------------------------------------------------


class StarDecompositionError(ValueError):
    """A polynomial is not a clean module element over its top strand."""


def star_decompose(x: NCPoly, side: str) -> dict[int, NCPoly]:
    """Write a module element as {j: coefficient} over the top strand * = x.n.

    On side "L" (the left module) every monomial must end with a_{j,*} and
    the coefficient, on x.n - 1 strands, is what stands to its left; on side
    "R" (the right module) every monomial must start with a_{*,j} and the
    coefficient is what stands to its right.  A monomial with no star slot,
    or with a second one, is an internal indexing error and raises.
    """
    if side not in ("L", "R"):
        raise ValueError(f"side must be 'L' or 'R', got {side!r}")
    s = x.n
    stars = {encode_gen(s, t) for t in range(1, s)} | {encode_gen(t, s) for t in range(1, s)}
    parts: dict[int, dict[Word, int]] = {}
    for w, c in x._terms.items():
        if not w:
            raise StarDecompositionError(f"constant term {c} has no star slot")
        if side == "L":
            rest, (j, slot) = w[:-1], decode_gen(w[-1])
        else:
            (slot, j), rest = decode_gen(w[0]), w[1:]
        if slot != s or j == s:
            shape = "end with a_{j,*}" if side == "L" else "start with a_{*,j}"
            raise StarDecompositionError(f"monomial does not {shape}: {word_text(w)}")
        if not stars.isdisjoint(rest):
            raise StarDecompositionError(f"extra star inside monomial: {word_text(w)}")
        parts.setdefault(j, {})[rest] = c  # distinct monomials never merge
    return {j: NCPoly._raw((s - 1,), terms) for j, terms in parts.items()}


# ---------------------------------------------------------------------------
# Action matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhiMatrix:
    """An n x n matrix of polynomials representing the left or right action."""

    n: int
    side: str
    entries: tuple[tuple[NCPoly, ...], ...]

    def __post_init__(self) -> None:
        if self.side not in ("L", "R"):
            raise ValueError(f"side must be 'L' or 'R', got {self.side!r}")
        if len(self.entries) != self.n or any(len(r) != self.n for r in self.entries):
            raise ValueError("entry grid is not n x n")
        for row in self.entries:
            for x in row:
                if x.n != self.n:
                    raise ValueError("entry ambient does not match matrix size")

    def at(self, i: int, j: int) -> NCPoly:
        """1-based entry access."""
        return self.entries[i - 1][j - 1]

    def conj_transpose(self) -> "PhiMatrix":
        """Transpose of the entrywise conjugate, tagged with the opposite side."""
        return PhiMatrix(
            self.n,
            "R" if self.side == "L" else "L",
            tuple(
                tuple(self.entries[j][i].conjugate() for j in range(self.n))
                for i in range(self.n)
            ),
        )

    def render_entries(self) -> list[list[str]]:
        return [[x.render() for x in row] for row in self.entries]

    def to_obj(self) -> dict:
        return {"n": self.n, "side": self.side, "entries": self.render_entries()}


def mat_mul(a: PhiMatrix, b: PhiMatrix) -> PhiMatrix:
    """a . b; each entry's sum of products fills one term map."""
    if a.n != b.n or a.side != b.side:
        raise ValueError("matrix mismatch")
    budget = term_budget()

    def entry(row, col) -> NCPoly:
        terms: dict[Word, int] = {}
        for x, y in zip(row, col):
            x._add_product(terms, x, y, 1, budget)
        return NCPoly._raw((a.n,), terms)

    cols = tuple(zip(*b.entries))
    return PhiMatrix(a.n, a.side, tuple(tuple(entry(row, col) for col in cols) for row in a.entries))


def _letter_step(x: np.ndarray, ps: int, pt: int, sub_mul) -> None:
    """Advance the fold by one letter, in place.

    x holds the block array [[PhiL(P), v], [0, PhiR(P)]] of shape (2n, 2n, ...)
    with v[i-1, j-1] = act(P, a_ij); trailing axes are a batch, and v's
    diagonal holds the ring's zero.  ps and pt are the stored positions of
    the letter's strands s and t, from :func:`_plan`, which has already
    swapped them for sigma_k^-1 and applied the relabelling.  sub_mul(y, a, b)
    sets y to the ring's y - a*b in place, with a or b broadcast over y; the
    caller of :func:`fold_block` picks it once per fold.  One row operation
    on rows s, t (the new row s is row_t - v_ts row_s, multiplied on the
    left, the new row t the old row s), one column operation on columns s, t
    (col_t - col_s v_st, multiplied on the right), and a 2 x 2 patch of v.
    Each operation updates the stored row pt (column n + pt) in place, and
    the plan's swapped labels make it row s (column s).  The patch's
    off-diagonal entries are set aside and zeroed while the two operations
    run, then written back negated: with the labels swapped, each lands
    where it was read from.
    """
    n = len(x) // 2
    v_ts, v_st = x[pt, n + ps, ...].copy(), x[ps, n + pt, ...].copy()  # 0-d for the object ring
    x[pt, n + ps], x[ps, n + pt] = x[pt, n + pt], x[ps, n + ps]  # zeros from v's diagonal
    sub_mul(x[pt], v_ts, x[ps])
    sub_mul(x[:, n + pt], x[:, n + ps], v_st)
    x[pt, n + ps], x[ps, n + pt] = -v_ts, -v_st


_Plan = tuple[tuple[int, ...], tuple[tuple[int, int, tuple[int, ...]], ...], tuple[int, ...]]


@functools.lru_cache(maxsize=256)  # a search folds one word about 75 times
def _plan(n: int, letters: tuple[int, ...]) -> _Plan:
    """:func:`fold_block`'s plan for a word: (idle, steps, order), in stored positions.

    idle lists the strands that no letter touches (none for the empty word).
    steps holds, per letter, the positions (ps, pt) it steps and the
    positions zeroed right after it: its strands whose last letter it is,
    unless it is the word's last, since no letter follows to read them.
    order[i] is the final position of strand i, which is perm(beta)(i + 1) - 1.
    """
    last = {i: k for k, e in enumerate(letters) for i in (abs(e) - 1, abs(e))}
    order, steps = list(range(n)), []
    for k, e in enumerate(letters):
        s, t = abs(e) - 1, abs(e)
        if e < 0:  # sigma_k^-1 is sigma_k with the roles of strands k and k+1 swapped
            s, t = t, s
        ps, pt = order[s], order[t]
        order[s], order[t] = pt, ps
        dead = tuple(order[i] for i in (abs(e) - 1, abs(e)) if last[i] == k < len(letters) - 1)
        steps.append((ps, pt, dead))
    idle = tuple(i for i in range(n) if i not in last) if letters else ()
    return idle, tuple(steps), tuple(order)


def fold_block(beta: BraidWord, v: np.ndarray, one, zero, sub_mul, sides: str = "LR") -> tuple[np.ndarray, ...]:
    """PhiL and PhiR of beta, or one of them, over the ring of v, one, zero and sub_mul (see :func:`_letter_step`).

    v[..., i-1, j-1] is the value of a_ij, batch axes first; v's diagonal is
    ignored.  The block array is seeded with the batch axes last and the
    ring's one on the diagonal of each side in sides ("LR", "L" or "R"); a
    side not named is all zeros, and stays so, since every update of it has
    a zero factor.  Following the word's :func:`_plan`, it zeroes v's row and
    column at each idle position, then steps the whole array once per letter
    and zeroes v's row and column at each position no later letter touches:
    only they read each other, so the matrices do not change, and in the
    free algebra every later update of them is a zero product that leaves y.
    One block per side in sides is read out through the final order (the
    strand permutation), batch axes first and C-contiguous.
    """
    n, k = beta.n, v.ndim - 2
    # the step never reads or writes the lower-left block, so it stays unset
    x = np.empty((2 * n, 2 * n) + v.shape[:k], dtype=v.dtype)
    x[:n, :n] = x[n:, n:] = zero
    x[:n, n:] = v.transpose(k, k + 1, *range(k))
    flat = x.reshape((4 * n * n,) + v.shape[:k])
    flat[n : 2 * n * n : 2 * n + 1] = zero  # v's diagonal
    diagonal = flat[:: 2 * n + 1]  # PhiL's n entries, then PhiR's
    diagonal[:n] = one if "L" in sides else zero
    diagonal[n:] = one if "R" in sides else zero
    idle, steps, order = _plan(n, beta.letters)
    for p in idle:  # v's row and column at position p
        x[p, n:] = x[:n, n + p] = zero
    for ps, pt, dead in steps:
        _letter_step(x, ps, pt, sub_mul)
        for p in dead:
            x[p, n:] = x[:n, n + p] = zero
    order = np.array(order)
    index = {"L": (order, np.s_[:n]), "R": (np.s_[n:], n + order)}
    return tuple(np.ascontiguousarray(x[index[side]].transpose(*range(2, k + 2), 0, 1)) for side in sides)


def _free_fold(beta: BraidWord, sides: str) -> tuple[PhiMatrix, ...]:
    """:func:`fold_block` over the free algebra, v holding the generators themselves."""
    n = beta.n
    one, zero = NCPoly.one(n), NCPoly.zero(n)  # these check n before any generator is built
    v = np.empty((n, n), dtype=object)
    for i, j in gen_order(n):
        v[i - 1, j - 1] = NCPoly._raw((n,), {encode_gen(i, j): 1})  # valid by construction
    budget = term_budget()  # read once per fold, not once per update

    def sub_mul(y, a, b):  # y - a*b in one copy of y's terms
        if not (a._terms and b._terms):
            return y
        return NCPoly._raw(y._amb, y._add_product(dict(y._terms), a, b, -1, budget))

    fused = np.frompyfunc(sub_mul, 3, 1)
    blocks = fold_block(beta, v, one, zero, lambda y, a, b: fused(y, a, b, out=y), sides)
    return tuple(PhiMatrix(n, side, tuple(map(tuple, block))) for block, side in zip(blocks, sides))


def phi_matrices(beta: BraidWord) -> tuple[PhiMatrix, PhiMatrix]:
    """Left and right action matrices of beta, from one letter fold."""
    return _free_fold(beta, "LR")


def phi_left(beta: BraidWord) -> PhiMatrix:
    """Left action matrix, from a fold whose right side is seeded with zeros."""
    return _free_fold(beta, "L")[0]


def phi_right(beta: BraidWord) -> PhiMatrix:
    """Right action matrix, from a fold whose left side is seeded with zeros."""
    return _free_fold(beta, "R")[0]


def chain_compose(m1: PhiMatrix, m2: PhiMatrix, beta1: BraidWord) -> PhiMatrix:
    """Compose action matrices: m1 for beta1, m2 for beta2, result for beta1*beta2."""
    if m1.side != m2.side or m1.n != m2.n:
        raise ValueError("matrix mismatch")
    if beta1.n != m1.n:
        raise ValueError("braid ambient does not match matrices")
    moved = PhiMatrix(m2.n, m2.side, tuple(tuple(phi(beta1, x) for x in row) for row in m2.entries))
    if m1.side == "L":
        return mat_mul(moved, m1)
    return mat_mul(m1, moved)


def _direct(beta: BraidWord, side: str) -> tuple[tuple[NCPoly, ...], ...]:
    """Row i: the action of beta, included in B_{n+1}, on a_{i,n+1} (side "L")
    or a_{n+1,i} (side "R"), decomposed over the top strand."""
    n = beta.n
    lifted = include_bar(beta, n + 1)
    zero = NCPoly.zero(n)
    rows = []
    for i in range(1, n + 1):
        gen = NCPoly.gen(n + 1, i, n + 1) if side == "L" else NCPoly.gen(n + 1, n + 1, i)
        coeffs = star_decompose(phi(lifted, gen), side)
        rows.append(tuple(coeffs.get(j, zero) for j in range(1, n + 1)))
    return tuple(rows)


def phi_left_direct(beta: BraidWord) -> PhiMatrix:
    """Left matrix via acting in B_{n+1} on each a_{i,n+1} and decomposing.

    Independent of the chain-rule fold; used to cross-check it.
    """
    return PhiMatrix(beta.n, "L", _direct(beta, "L"))


def phi_right_direct(beta: BraidWord) -> PhiMatrix:
    """Right matrix via acting in B_{n+1} on each a_{n+1,i} and decomposing."""
    return PhiMatrix(beta.n, "R", tuple(zip(*_direct(beta, "R"))))


# ---------------------------------------------------------------------------
# Closed forms for band words
# ---------------------------------------------------------------------------


def _chain(i: int, ys: tuple[int, ...], j: int) -> Mon:
    """The monomial a_{i y1} a_{y1 y2} ... a_{yl j} along i, ys, j."""
    pts = (i,) + ys + (j,)
    return tuple((pts[t], pts[t + 1]) for t in range(len(pts) - 1))


def _subsets(m: int, l: int) -> Iterable[tuple[int, ...]]:
    window = range(m, m + l)
    for size in range(l + 1):
        yield from combinations(window, size)


def sum_asc(n_amb: int, i: int, j: int, m: int, l: int) -> NCPoly:
    """Alternating sum over subsets of the window, indices ascending inside."""
    terms: dict[Mon, int] = {}
    for ys in _subsets(m, l):
        terms[_chain(i, ys, j)] = (-1) ** len(ys)
    return NCPoly(n_amb, terms)


def sum_desc(n_amb: int, i: int, j: int, m: int, l: int) -> NCPoly:
    """Alternating sum over subsets of the window, indices descending inside: sum_asc(j to i) conjugated."""
    return sum_asc(n_amb, j, i, m, l).conjugate()


def sum_crossing(n_amb: int, i: int, j: int, m: int, l: int) -> NCPoly:
    """Signed descending sum used when the target lands inside the window.

    Subsets whose minimum is j are skipped; the sign is -(-1)^|Y| when the
    subset avoids {m..j} entirely and (-1)^|Y| when it meets {m..j-1}.
    """
    terms: dict[Mon, int] = {}
    for ys in _subsets(m, l):
        if ys and ys[0] == j:
            continue
        low = [y for y in ys if y <= j]
        if not low:
            c = -((-1) ** len(ys))
        else:
            # min element is < j because subsets with min exactly j are skipped
            c = (-1) ** len(ys)
        terms[_chain(i, ys[::-1], j)] = c  # distinct subsets give distinct monomials
    return NCPoly(n_amb, terms)


def tau_closed_form(m: int, p: int, i: int, j: int, n: int) -> NCPoly:
    """Image of a_ij (i < j) on n strands under the ascending band word of width p at m: kappa, one window."""
    return kappa_closed_form(m, 1, p, i, j, n)


def kappa_closed_form(m: int, l: int, p: int, i: int, j: int, n: int) -> NCPoly:
    """Image of a_ij (i < j) on n strands under the descending product of band words.

    Valid for window count l <= p; l = 1 is the band word of width p (tau), l = p the cabled generator.
    """
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    if not (1 <= l <= p) or m < 1 or m + l + p - 1 > n:
        raise ValueError(f"(m={m}, l={l}, p={p}) does not fit in ambient {n}")
    g = lambda a, b: NCPoly.gen(n, a, b)
    in_first = lambda t: m <= t < m + p
    in_second = lambda t: m + p <= t < m + p + l
    if in_first(i) and in_first(j):
        return g(i + l, j + l)
    if in_second(i) and in_second(j):
        return g(i - p, j - p)
    if in_first(i) and in_second(j):
        return sum_crossing(n, i + l, j - p, m, l)
    if in_second(i) and j >= m + l + p:
        return g(i - p, j)
    if i < m and in_second(j):
        return g(i, j - p)
    if i < m and in_first(j):
        return sum_asc(n, i, j + l, m, l)
    if in_first(i) and j >= m + p + l:
        return sum_desc(n, i + l, j, m, l)
    return g(i, j)


def cabled_generator_closed_form(n_gen: int, p: int, i: int, j: int, n: int) -> NCPoly:
    """Image of a_ij (i < j) on n strands under the p-cable of sigma_{n_gen}, n_gen >= 1."""
    return kappa_closed_form((n_gen - 1) * p + 1, p, p, i, j, n)
