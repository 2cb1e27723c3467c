"""Randomized and exhaustive identity checks, reusable from the CLI and tests.

Each check returns a :class:`CheckReport`; a failing report names the claim,
the parameters, and the offending entry so conventions can be debugged from
the report alone.  The splitting verifiers of :mod:`augrank.splitting`
report through the same type.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field

from .action import (
    cabled_generator_closed_form,
    chain_compose,
    phi,
    phi_left,
    phi_matrices,
    tau_closed_form,
)
from .braids import BraidWord, cable, include_bar, perm, tau_word
from .freealg import NCPoly, gen_order


@dataclass
class CheckReport:
    """Outcome of one exact claim check; diffs localize every failure."""

    claim: str
    parameters: dict
    diffs: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diffs

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"

    def compare(self, lhs, rhs, **where) -> None:
        """Record ``{**where, "lhs": ..., "rhs": ...}`` (rendered) when lhs != rhs.

        lhs and rhs are polynomials, or module elements: dicts from a basis
        key to a polynomial, rendered with each key as its str.
        """
        if lhs != rhs:
            self.diffs.append({**where, "lhs": _render(lhs), "rhs": _render(rhs)})

    def to_obj(self) -> dict:
        return {
            "claim": self.claim,
            "parameters": dict(self.parameters),
            "status": self.status,
            "diffs": list(self.diffs),
        }


def _render(x):
    return {str(key): val.render() for key, val in x.items()} if isinstance(x, dict) else x.render()


def require_at_least(name: str, value: int, least: int) -> int:
    """value, or a ValueError naming name when it is below least: there a suite checks nothing, or repeats a check."""
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _sampled(claim: str, n: int, count: int, seed: int, max_len: int, diffs_of) -> CheckReport:
    """A randomized check: diffs_of(idx, draw) lists the diffs of sample idx, whose
    words draw() takes from one random.Random(seed).  An empty draw checks nothing."""
    require_at_least("n", n, 2)
    require_at_least("count", count, 1)
    require_at_least("seed", seed, 0)  # random.Random(-s) draws what Random(s) draws
    rng = random.Random(seed)
    pool = [e for e in range(-(n - 1), n) if e != 0]
    draw = lambda: BraidWord(n, tuple(rng.choice(pool) for _ in range(rng.randint(0, max_len))))
    return CheckReport(
        claim=claim,
        parameters={"n": n, "count": count, "seed": seed, "max_len": max_len},
        diffs=[diff for idx in range(count) for diff in diffs_of(idx, draw)],
    )


def check_chain_rule(n: int, count: int = 200, seed: int = 0, max_len: int = 5) -> CheckReport:
    """Action matrices of a product agree with the letter-fold composition."""
    def diffs_of(idx, draw):
        b1, b2 = draw(), draw()
        for side, m1, m2, m12 in zip("LR", phi_matrices(b1), phi_matrices(b2), phi_matrices(b1 * b2)):
            if chain_compose(m1, m2, b1) != m12:
                yield {"pair": idx, "side": side, "beta1": b1.to_text(), "beta2": b2.to_text()}

    return _sampled("chain rule for action matrices", n, count, seed, max_len, diffs_of)


def check_transpose(n: int, count: int = 200, seed: int = 0, max_len: int = 6) -> CheckReport:
    """Right matrix equals the transpose of the entrywise conjugate of the left."""
    def diffs_of(idx, draw):
        b = draw()
        left, right = phi_matrices(b)
        if right != left.conj_transpose():
            yield {"word": b.to_text(), "index": idx}

    return _sampled("transpose symmetry between left and right matrices", n, count, seed, max_len, diffs_of)


def check_monomial_structure(n: int, count: int = 100, seed: int = 0, max_len: int = 5) -> CheckReport:
    """Every left-matrix entry is a sum of index chains from perm(beta)(i) to j."""
    def diffs_of(idx, draw):
        b = draw()
        pm = perm(b)
        m = phi_left(b)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for mon in m.at(i, j).terms:
                    if not mon:
                        if pm(i) != j:
                            yield {"word": b.to_text(), "i": i, "j": j, "bad": "constant"}
                        continue
                    chain_ok = all(mon[t][1] == mon[t + 1][0] for t in range(len(mon) - 1))
                    if mon[0][0] != pm(i) or mon[-1][1] != j or not chain_ok:
                        yield {"word": b.to_text(), "i": i, "j": j, "bad": str(mon)}

    claim = "left-matrix monomials are chains from the permuted row index"
    return _sampled(claim, n, count, seed, max_len, diffs_of)


def check_braid_relations(n: int) -> CheckReport:
    """Both braid relations hold on every generator of the algebra."""
    gens = [NCPoly.gen(n, i, j) for i, j in gen_order(n)]
    relations = [(f"adjacent {i}", (i, i + 1, i), (i + 1, i, i + 1)) for i in range(1, n - 1)]
    relations += [(f"commuting {i},{j}", (i, j), (j, i)) for i in range(1, n) for j in range(i + 2, n)]
    diffs = [
        {"relation": name, "generator": g.render()}
        for name, lhs, rhs in relations
        for g in gens
        if phi(BraidWord(n, lhs), g) != phi(BraidWord(n, rhs), g)
    ]
    return CheckReport(
        claim="braid relations hold for the action",
        parameters={"n": n},
        diffs=diffs,
    )


def _compare_closed_form(report: CheckReport, word: BraidWord, closed_form, **where) -> None:
    """Compare closed_form(i, j, amb) with the action of word on a_ij, for every i < j.

    The ambient amb is word.n and word.n + 1; there a j on the extra strand
    is reported as "star".
    """
    n = word.n
    for amb in (n, n + 1):
        lifted = include_bar(word, amb)
        for i in range(1, amb + 1):
            for j in range(i + 1, amb + 1):
                got = closed_form(i, j, amb)
                want = phi(lifted, NCPoly.gen(amb, i, j))
                report.compare(got, want, **where, i=i, j="star" if j > n else j)


def check_tau_forms(n: int) -> CheckReport:
    """The ascending band word closed form matches the direct action."""
    require_at_least("n", n, 2)
    report = CheckReport(claim="ascending band word closed form", parameters={"n": n})
    for m in range(1, n):
        for p in range(1, n - m + 1):
            form = functools.partial(tau_closed_form, m, p)
            _compare_closed_form(report, tau_word(m, p, n), form, m=m, p=p)
    return report


def check_cabled_letter_forms(k: int, p: int) -> CheckReport:
    """The cabled-generator closed form matches the direct action, extra strand included."""
    require_at_least("k", k, 2)
    report = CheckReport(claim="cabled generator closed form", parameters={"k": k, "p": p})
    for n_gen in range(1, k):
        cab = cable(BraidWord(k, (n_gen,)), p)
        form = functools.partial(cabled_generator_closed_form, n_gen, p)
        _compare_closed_form(report, cab, form, n_gen=n_gen)
    return report


def check_block_structure(n: int, p: int) -> CheckReport:
    """Exact block facts about the cabled ascending word and the pattern row.

    For tau = sigma_1..sigma_{n-1} the left matrix of its p-cable, cut into
    p x p blocks, has (a) identity across block-rows < n and block-columns > 1,
    (b) identity in the bottom-left block, (c) zero in the rest of the bottom
    block-row; and (d) the left matrix of sigma_1..sigma_{p-1} included in
    B_np has row p equal to the first standard basis vector.
    """
    require_at_least("n", n, 2)
    require_at_least("p", p, 1)
    np_total = n * p
    report = CheckReport(
        claim="cabled ascending-word block structure and pattern row",
        parameters={"n": n, "p": p},
    )
    big = phi_left(cable(tau_word(1, n - 1, n), p))
    one, zero = NCPoly.one(np_total), NCPoly.zero(np_total)
    for i in range(1, (n - 1) * p + 1):
        for j in range(p + 1, np_total + 1):
            report.compare(big.at(i, j), one if j - p == i else zero, claim="a", i=i, j=j)
    for s in range(1, p + 1):
        for t in range(1, p + 1):
            i = (n - 1) * p + s
            report.compare(big.at(i, t), one if s == t else zero, claim="b", i=i, j=t)
    for s in range(1, p + 1):
        for j in range(p + 1, np_total + 1):
            i = (n - 1) * p + s
            report.compare(big.at(i, j), zero, claim="c", i=i, j=j)
    pattern = phi_left(include_bar(tau_word(1, p - 1, p), np_total))
    for j in range(1, np_total + 1):
        report.compare(pattern.at(p, j), one if j == 1 else zero, claim="d", i=p, j=j)
    return report
