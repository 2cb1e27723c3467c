"""Randomized and exhaustive identity checks, reusable from the CLI and tests.

Each check returns a :class:`CheckReport`; a failing report names the claim,
the parameters, and the offending entry so conventions can be debugged from
the report alone.
"""

from __future__ import annotations

import random

from .action import (
    cabled_generator_closed_form,
    chain_compose,
    phi,
    phi_left,
    phi_matrices,
    tau_closed_form,
)
from .braids import BraidWord, cable, include_bar, perm, tau_word
from .freealg import NCPoly
from .reporting import CheckReport


def random_word(rng: random.Random, n: int, max_len: int) -> BraidWord:
    length = rng.randint(0, max_len)
    pool = [e for e in range(-(n - 1), n) if e != 0]
    return BraidWord(n, tuple(rng.choice(pool) for _ in range(length)))


def require_at_least(name: str, value: int, least: int) -> int:
    """value, or a ValueError naming name when it is below least: there a suite compares nothing."""
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _check_sample(n: int, count: int) -> None:
    """A randomized check draws count words from the generators of B_n; an empty draw checks nothing."""
    require_at_least("n", n, 2)
    require_at_least("count", count, 1)


def check_chain_rule(n: int, count: int = 200, seed: int = 0, max_len: int = 5) -> CheckReport:
    """Action matrices of a product agree with the letter-fold composition."""
    _check_sample(n, count)
    rng = random.Random(seed)
    diffs = []
    for idx in range(count):
        b1, b2 = random_word(rng, n, max_len), random_word(rng, n, max_len)
        for side, m1, m2, m12 in zip("LR", phi_matrices(b1), phi_matrices(b2), phi_matrices(b1 * b2)):
            if chain_compose(m1, m2, b1) != m12:
                diffs.append({"pair": idx, "side": side, "beta1": b1.to_text(), "beta2": b2.to_text()})
    return CheckReport(
        claim="chain rule for action matrices",
        parameters={"n": n, "count": count, "seed": seed, "max_len": max_len},
        diffs=diffs,
    )


def check_transpose(n: int, count: int = 200, seed: int = 0, max_len: int = 6) -> CheckReport:
    """Right matrix equals the transpose of the entrywise conjugate of the left."""
    _check_sample(n, count)
    rng = random.Random(seed)
    diffs = []
    for idx in range(count):
        b = random_word(rng, n, max_len)
        left, right = phi_matrices(b)
        if right != left.conj_transpose():
            diffs.append({"word": b.to_text(), "index": idx})
    return CheckReport(
        claim="transpose symmetry between left and right matrices",
        parameters={"n": n, "count": count, "seed": seed, "max_len": max_len},
        diffs=diffs,
    )


def check_monomial_structure(n: int, count: int = 100, seed: int = 0, max_len: int = 5) -> CheckReport:
    """Every left-matrix entry is a sum of index chains from perm(beta)(i) to j."""
    _check_sample(n, count)
    rng = random.Random(seed)
    diffs = []
    for idx in range(count):
        b = random_word(rng, n, max_len)
        pm = perm(b)
        m = phi_left(b)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for mon in m.at(i, j).terms:
                    if not mon:
                        if pm(i) != j:
                            diffs.append({"word": b.to_text(), "i": i, "j": j, "bad": "constant"})
                        continue
                    chain_ok = all(mon[t][1] == mon[t + 1][0] for t in range(len(mon) - 1))
                    if mon[0][0] != pm(i) or mon[-1][1] != j or not chain_ok:
                        diffs.append(
                            {"word": b.to_text(), "i": i, "j": j, "bad": str(mon)}
                        )
    return CheckReport(
        claim="left-matrix monomials are chains from the permuted row index",
        parameters={"n": n, "count": count, "seed": seed, "max_len": max_len},
        diffs=diffs,
    )


def check_braid_relations(n: int) -> CheckReport:
    """Both braid relations hold on every generator of the algebra."""
    diffs = []
    gens = [
        NCPoly.gen(n, i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j
    ]
    for i in range(1, n - 1):
        lhs_w, rhs_w = BraidWord(n, (i, i + 1, i)), BraidWord(n, (i + 1, i, i + 1))
        for g in gens:
            if phi(lhs_w, g) != phi(rhs_w, g):
                diffs.append({"relation": f"adjacent {i}", "generator": g.render()})
    for i in range(1, n):
        for j in range(i + 2, n):
            lhs_w, rhs_w = BraidWord(n, (i, j)), BraidWord(n, (j, i))
            for g in gens:
                if phi(lhs_w, g) != phi(rhs_w, g):
                    diffs.append({"relation": f"commuting {i},{j}", "generator": g.render()})
    return CheckReport(
        claim="braid relations hold for the action",
        parameters={"n": n},
        diffs=diffs,
    )


def check_tau_forms(n: int) -> CheckReport:
    """The ascending band word closed form matches the direct action."""
    require_at_least("n", n, 2)
    report = CheckReport(claim="ascending band word closed form", parameters={"n": n})
    for m in range(1, n):
        for p in range(1, n - m + 1):
            w = tau_word(m, p, n)
            for amb in (n, n + 1):
                for i in range(1, amb + 1):
                    for j in range(i + 1, amb + 1):
                        got = tau_closed_form(m, p, i, j, amb)
                        want = phi(include_bar(w, amb), NCPoly.gen(amb, i, j))
                        j_key = "star" if j == n + 1 else j
                        report.compare(got, want, m=m, p=p, i=i, j=j_key)
    return report


def check_cabled_letter_forms(k: int, p: int) -> CheckReport:
    """The cabled-generator closed form matches the direct action, extra strand included."""
    require_at_least("k", k, 2)
    kp = k * p
    report = CheckReport(claim="cabled generator closed form", parameters={"k": k, "p": p})
    for n_gen in range(1, k):
        cab = cable(BraidWord(k, (n_gen,)), p)
        for amb in (kp, kp + 1):
            for i in range(1, amb + 1):
                for j in range(i + 1, amb + 1):
                    got = cabled_generator_closed_form(n_gen, p, i, j, amb)
                    want = phi(include_bar(cab, amb), NCPoly.gen(amb, i, j))
                    j_key = "star" if j == kp + 1 else j
                    report.compare(got, want, n_gen=n_gen, i=i, j=j_key)
    return report
