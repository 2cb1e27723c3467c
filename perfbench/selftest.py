"""Self-test of the benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that every workload runs at a tiny size in both modes and prints
a well-formed result line; that a certificate with one perturbed generator,
or with a perturbed generator and ``"tol": 10``, counts as a failed
operation; that the tracer restores every function it wraps; and that the
benchmark exits nonzero, printing no result, where the library sources are
missing.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

HERE = run.HERE
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def bench(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_runs() -> None:
    from layers import PER_LAYER

    names = {0: [n for n, _ in run.END_TO_END], 1: [n for n, _ in PER_LAYER]}
    for workload in ("nonexist", "certify", "symbolic"):
        for trace in (0, 1):
            done = bench(["--workload", workload, "--seed", "3", "--seconds", "0.001",
                          "--trace", str(trace)], run.ROOT)
            what = f"{workload} --trace {trace}"
            if done.returncode != 0:
                expect(False, f"{what} exits 0 ({done.stderr.strip()[-300:]})")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{what} result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{what} every operation passes its gate")
            expect(list(result["metrics"]) == names[trace], f"{what} reports every metric")


def perturb(obj: dict) -> None:
    obj["generators"][0]["re"] += 1e-3


def perturb_and_loosen(obj: dict) -> None:
    perturb(obj)
    obj["tol"] = 10.0


def check_tampered_certificates() -> None:
    from workloads import GateError, certify_op

    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        for name, tamper in (("untouched", None), ("perturbed", perturb),
                             ("perturbed, tol 10", perturb_and_loosen)):
            op = certify_op(workdir, (2, 3), (2, 5), (0, 1), False, tamper)
            tally = run.Tally()
            tally.record(op, *run.run_op(op))
            expect(tally.failed == (0 if tamper is None else 1),
                   f"{name} certificate: {tally.failed} of {tally.attempted} failed")
        # with tol 10 the verifier itself accepts; only the benchmark's bound catches it
        op = certify_op(workdir, (2, 3), (2, 5), (0, 1), False, perturb_and_loosen)
        outputs = op.run()
        expect(json.loads(outputs[0])["accepted"], "verify accepts the tol 10 certificate")
        try:
            op.check(outputs)
            expect(False, "the gate rejects the tol 10 certificate")
        except GateError as exc:
            expect("recomputed residual" in str(exc), f"the gate rejects it: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_tracer_restores() -> None:
    from augrank import augment, cli, freealg
    from layers import Tracer

    before = (augment.eval_phi_matrices, cli.solve_full_rank, freealg.NCPoly.__mul__)
    tracer = Tracer()
    tracer.install()
    installed = (augment.eval_phi_matrices, cli.solve_full_rank, freealg.NCPoly.__mul__)
    tracer.remove()
    after = (augment.eval_phi_matrices, cli.solve_full_rank, freealg.NCPoly.__mul__)
    expect(all(a is not b for a, b in zip(before, installed)), "tracer wraps shared names")
    expect(all(a is b for a, b in zip(before, after)), "tracer restores every wrapped name")


def check_no_sources() -> None:
    bare = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work-*", "__pycache__"))
        done = bench(["--workload", "certify", "--seed", "0", "--seconds", "1", "--trace", "0"], bare)
        expect(done.returncode != 0 and not done.stdout.strip(),
               f"without sources: exit {done.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    for var in run.BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(run.SRC))
    check_tracer_restores()
    check_tampered_certificates()
    check_no_sources()
    check_runs()
    print(f"{len(FAILURES)} failed checks" if FAILURES else "self-test passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
