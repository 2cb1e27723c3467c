"""The three benchmark workloads: their seeded inputs, operations and gates.

Every workload is a closed loop driven by one client: the next operation is
issued only after the previous one has finished.  Operations come in rounds;
a round is a fixed multiset of operations whose order (and, where an
operation has one, its search seed) is drawn from the workload seed, so two
runs with the same seed do exactly the same work and runs with different
seeds do the same amount of it.

The benchmark owns the correctness gates.  A gate never reads an acceptance
bound from the data it checks: certificates are held to ``CERT_TOL`` whatever
``tol`` they carry.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from augrank import cli
from augrank.action import phi_left, phi_right
from augrank.augment import SolveOptions, check_block_structure, nonexistence_search
from augrank.braids import BraidWord, cable, satellite_braid, torus_braid
from augrank.splitting import verify_cable_matrix_split, verify_commutes, verify_sum_collapse

CERT_TOL = 1e-9
NONEXIST_RESTARTS = 64
NONEXIST_BRAID = satellite_braid(BraidWord(2, (1, 1, 1)), BraidWord(2, (1,)))
KNOTS = ((2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (4, 5))

# Criterion 06's grid without cable(sigma1^3, 3) in B6 and B9: each of those
# takes about 9 s, so a run could not hold the ten samples a tail needs.  The
# deep end of the symbolic mix is the phi_left/phi_right pairs instead.
SPLIT_WORDS = (("", 1), ("1", 2), ("1 1 1", 2), ("1 2", 3), ("1 -2", 3))
SPLIT_SKIPPED = {(2, 3, "1 1 1"), (3, 3, "1 1 1")}
BLOCK_SHAPES = ((2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (2, 4))
PAIR_WORDS = (
    ("cable(s1^4,2)", cable(BraidWord(2, (1,) * 4), 2)),
    ("cable(T(3,4),2)", cable(torus_braid(3, 4), 2)),
    ("T(3,10)", torus_braid(3, 10)),
    ("T(4,9)", torus_braid(4, 9)),
)


class GateError(Exception):
    """An operation completed but its output failed the benchmark's gate."""


@dataclass(frozen=True)
class Op:
    """One closed-loop operation.

    ``run`` does the timed work and returns its output; ``check`` applies the
    gate to that output, raising on failure, and returns the number of solver
    restarts the output reports (0 where it reports none).
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], int]


# ---------------------------------------------------------------------------
# nonexist: criterion 11's search at a 64-restart budget
# ---------------------------------------------------------------------------


def nonexist_op(seed: int, restarts: int = NONEXIST_RESTARTS) -> Op:
    options = SolveOptions(restarts=restarts, seed=seed)

    def check(report) -> int:
        if report.found:
            raise GateError("a certificate was found for T((2,2),(3,1))")
        count = report.residual_summary.get("count")
        if count != restarts:
            raise GateError(f"residual_summary counts {count} restarts, budget is {restarts}")
        best = report.best_residual
        if not (math.isfinite(best) and best > CERT_TOL):
            raise GateError(f"best residual {best!r} is not finite and above {CERT_TOL}")
        return count

    return Op("nonexist T((2,2),(3,1))", lambda: nonexistence_search(NONEXIST_BRAID, options), check)


def nonexist_rounds(seed: int, workdir: str) -> Iterator[list[Op]]:
    index = 0
    while True:
        yield [nonexist_op(seed + index)]
        index += 1


def nonexist_warmup(seed: int, workdir: str) -> None:
    nonexist_op(seed, restarts=1).run()


# ---------------------------------------------------------------------------
# certify: ar-search x2, construct-aug, verify (+ one more construct-aug)
# ---------------------------------------------------------------------------


class CliError(RuntimeError):
    """An augrank command exited with a nonzero code."""


def run_cli(argv: list[str]) -> str:
    """Run one augrank command in-process; return its standard output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CliError(f"augrank {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _braid_obj(braid: BraidWord) -> dict:
    return {"n": braid.n, "word": list(braid.letters)}


def certify_op(
    workdir: str,
    companion: tuple[int, int],
    pattern: tuple[int, int],
    seeds: tuple[int, int],
    iterate: bool,
    tamper: Callable[[dict], None] | None = None,
) -> Op:
    """The README pipeline for one (companion, pattern) pair of torus knots.

    With ``iterate`` the satellite certificate is used once more as the
    companion of the same pattern.  ``tamper`` edits the satellite
    certificate file before it is verified (used only by the self-test).
    """
    alpha, gamma = torus_braid(*companion), torus_braid(*pattern)
    sat = satellite_braid(alpha, gamma)
    expected = [sat] + ([satellite_braid(sat, gamma)] if iterate else [])
    path = lambda name: os.path.join(workdir, name)

    def search(braid: BraidWord, seed: int, out: str) -> None:
        run_cli(["ar-search", "--n", str(braid.n), "--word", braid.to_text(),
                 "--seed", str(seed), "--output", out])

    def run() -> list[str]:
        search(alpha, seeds[0], path("alpha.json"))
        search(gamma, seeds[1], path("gamma.json"))
        run_cli(["construct-aug", "--alpha-cert", path("alpha.json"),
                 "--gamma-cert", path("gamma.json"), "--output", path("sat0.json")])
        if tamper is not None:
            with open(path("sat0.json"), encoding="utf-8") as fh:
                obj = json.load(fh)
            tamper(obj)
            with open(path("sat0.json"), "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        outputs = [run_cli(["verify", "--cert", path("sat0.json"), "--format", "json"])]
        if iterate:
            run_cli(["construct-aug", "--alpha-cert", path("sat0.json"),
                     "--gamma-cert", path("gamma.json"), "--output", path("sat1.json")])
            outputs.append(run_cli(["verify", "--cert", path("sat1.json"), "--format", "json"]))
        return outputs

    def check(outputs: list[str]) -> int:
        if len(outputs) != len(expected):
            raise GateError(f"{len(outputs)} verify outputs, expected {len(expected)}")
        for idx, (text, braid) in enumerate(zip(outputs, expected)):
            with open(path(f"sat{idx}.json"), encoding="utf-8") as fh:
                stored = json.load(fh)["braid"]
            if stored != _braid_obj(braid):
                raise GateError(f"sat{idx}: certificate braid is not the satellite word")
            rec = json.loads(text)["recomputed"]
            worst = max(rec["residual_L"], rec["residual_R"])
            if not worst <= CERT_TOL:
                raise GateError(f"sat{idx}: recomputed residual {worst:.3e} > {CERT_TOL}")
            if rec["rank"] != braid.n:
                raise GateError(f"sat{idx}: recomputed rank {rec['rank']} != {braid.n}")
        return 0

    label = f"certify T{companion} sat T{pattern}{' iterated' if iterate else ''}"
    return Op(label, run, check)


def certify_rounds(seed: int, workdir: str) -> Iterator[list[Op]]:
    """Each round: all 36 ordered knot pairs; those with a 2-strand pattern iterate."""
    r = 0
    while True:
        rng = random.Random(f"certify/{seed}/{r}")
        pairs = [(a, g) for a in KNOTS for g in KNOTS]
        rng.shuffle(pairs)
        yield [
            certify_op(workdir, a, g, (rng.randrange(10**6), rng.randrange(10**6)), g[0] == 2)
            for a, g in pairs
        ]
        r += 1


def certify_warmup(seed: int, workdir: str) -> None:
    op = certify_op(workdir, (2, 3), (2, 3), (seed, seed + 1), True)
    op.check(op.run())


# ---------------------------------------------------------------------------
# symbolic: exact identity suites and action-matrix pairs
# ---------------------------------------------------------------------------


def _reports_ok(reports) -> int:
    bad = [r for r in reports if not r.ok]
    if bad:
        raise GateError(f"{bad[0].claim} {bad[0].parameters}: {bad[0].diffs[:1]}")
    return 0


def _pair_ok(pair) -> int:
    left, right = pair
    if right != left.conj_transpose():
        raise GateError("phi_right is not the conjugate transpose of phi_left")
    return 0


def symbolic_ops() -> list[Op]:
    ops = []
    for k in (1, 2, 3):
        for p in (1, 2, 3):
            for text, min_k in SPLIT_WORDS:
                if k >= min_k and (k, p, text) not in SPLIT_SKIPPED:
                    word = BraidWord.from_text(k, text)
                    ops.append(Op(f"split k={k} p={p} word={text!r}",
                                  lambda w=word, p=p: [verify_cable_matrix_split(w, p)], _reports_ok))
    for k in (2, 3):
        for p in (1, 2, 3):
            for g in range(1, k):
                ops.append(Op(f"commutes {g} {k} {p}",
                              lambda a=(g, k, p): [verify_commutes(*a)], _reports_ok))
                ops.append(Op(f"collapse {g} {k} {p}",
                              lambda a=(g, k, p): [verify_sum_collapse(*a)], _reports_ok))
    for n, p in BLOCK_SHAPES:
        ops.append(Op(f"blocks n={n} p={p}",
                      lambda a=(n, p): [check_block_structure(*a)], _reports_ok))
    for name, braid in PAIR_WORDS:
        ops.append(Op(f"pair {name}", lambda b=braid: (phi_left(b), phi_right(b)), _pair_ok))
    return ops


def symbolic_rounds(seed: int, workdir: str) -> Iterator[list[Op]]:
    r = 0
    while True:
        ops = symbolic_ops()
        random.Random(f"symbolic/{seed}/{r}").shuffle(ops)
        yield ops
        r += 1


def symbolic_warmup(seed: int, workdir: str) -> None:
    for op in symbolic_ops()[:: 8]:
        op.check(op.run())


@dataclass(frozen=True)
class Workload:
    """A workload: its rounds, its warm-up, and its traced-run size."""

    rounds: Callable[[int, str], Iterator[list[Op]]]
    warmup: Callable[[int, str], None]
    seconds_per_traced_round: float

    def trace_rounds(self, seconds: float) -> int:
        # A traced run does a fixed number of rounds (each once untraced and
        # once traced) so that its counts repeat exactly for a given seed.
        return max(1, int(seconds / self.seconds_per_traced_round))


WORKLOADS = {
    "nonexist": Workload(nonexist_rounds, nonexist_warmup, 12.0),
    "certify": Workload(certify_rounds, certify_warmup, 5.0),
    "symbolic": Workload(symbolic_rounds, symbolic_warmup, 5.0),
}
