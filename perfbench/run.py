"""Layered benchmark for augrank.

Run from the repository root:

    python3 perfbench/run.py --workload nonexist --seed 1 --seconds 30 --trace 0

Workloads (see NOTES.md for why each was chosen):

- ``nonexist``: ``nonexistence_search`` on T((2,2),(3,1)) at 64 restarts;
- ``certify``: ar-search, construct-aug and verify through ``augrank.cli.main``;
- ``symbolic``: the exact splitting and block suites and phi_left/phi_right pairs.

Each is one closed-loop client in one process, with BLAS pinned to one
thread.  ``--trace 0`` runs whole rounds of operations until ``--seconds`` of
operation time have passed and reports the end-to-end metrics, with
operation timings corrected for host contention (calibration.py).  ``--trace 1``
runs a fixed number of rounds, each operation once untraced and once traced,
and reports the per-layer metrics, the fold kernel probe and the tracing
overhead.  Every line before the last is for people; the last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import augrank.cli; print(time.perf_counter() - t)"
)

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("peak_rss_mb", "MB"),
)


def child_import_seconds() -> float:
    """Import time of augrank (with numpy) in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip())


def run_op(op, tracer=None) -> tuple[float, object, BaseException | None]:
    """Time one operation; an exception is returned, not raised."""
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:  # any failure of the program counts against it
        result, error = None, exc
    finally:
        dt = time.perf_counter() - start
        if tracer is not None:
            tracer.remove()
    return dt, result, error


class Tally:
    """Attempted and failed operations, latencies and reported restarts."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.restarts = 0
        self.first_failures: list[str] = []

    def record(self, op, dt: float, result, error) -> None:
        self.attempted += 1
        self.latencies.append(dt)
        if error is None:
            try:
                self.restarts += op.check(result)
                return
            except Exception as exc:  # a gate failure or a malformed output
                error = exc
        self.failed += 1
        if len(self.first_failures) < 5:
            self.first_failures.append(f"{op.label}: {type(error).__name__}: {error}")


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it, never below the median.

    Returns (value, percentile rank, samples beyond).
    """
    s = sorted(latencies)
    idx = max(len(s) - 11, len(s) // 2)
    return s[idx], 100.0 * (idx + 1) / len(s), len(s) - 1 - idx


def run_timed(workload, seed: int, seconds: float, workdir: str) -> tuple[Tally, list[list[float]]]:
    """Whole rounds until the operation time reaches ``seconds``.

    The calibration kernel is timed before the first operation and after
    each one; returns the tally and those kernel timings, one list per gap.
    """
    import calibration

    tally = Tally()
    gaps = [calibration.gap(0.0)]
    for ops in workload.rounds(seed, workdir):
        for op in ops:
            tally.record(op, *run_op(op))
            gaps.append(calibration.gap(tally.latencies[-1]))
        if sum(tally.latencies) >= seconds:
            return tally, gaps


def run_traced(workload, seed: int, seconds: float, workdir: str):
    """A fixed number of rounds; each operation once untraced and once traced.

    The two runs of an operation alternate in order, and both are corrected
    for host contention like the end-to-end timings.  Returns the tally, the
    tracer and the tracing overhead in percent.
    """
    import calibration
    from layers import Tracer

    tracer = Tracer()
    tally = Tally()
    gaps = [calibration.gap(0.0)]
    traced_flags = []
    rounds = workload.rounds(seed, workdir)
    for _ in range(workload.trace_rounds(seconds)):
        for op in next(rounds):
            first = len(traced_flags) // 2 % 2 == 1
            for traced in (first, not first):
                tally.record(op, *run_op(op, tracer if traced else None))
                traced_flags.append(traced)
                gaps.append(calibration.gap(tally.latencies[-1]))
    lat = [dt / f for dt, f in zip(tally.latencies, calibration.slowdowns(gaps))]
    plain = sum(t for t, traced in zip(lat, traced_flags) if not traced)
    traced = sum(t for t, traced in zip(lat, traced_flags) if traced)
    return tally, tracer, 100.0 * (traced / plain - 1.0)


def end_to_end(tally: Tally, gaps: list[list[float]], setup_s: float) -> dict[str, float]:
    """Print the raw figures; return the end-to-end metrics, corrected for contention."""
    import calibration

    raw = tally.latencies
    slow = calibration.slowdowns(gaps)
    lat = [dt / f for dt, f in zip(raw, slow)]
    value, pct, beyond = tail(lat)
    print(f"raw ops_per_s = {len(raw) / sum(raw)!r} 1/s")
    print(f"raw op_ms.p50 = {1e3 * statistics.median(raw)!r} ms")
    print(f"raw op_ms.tail = {1e3 * tail(raw)[0]!r} ms")
    print(f"host slowdown = {statistics.median(slow)!r} (calibration kernel over its quiet time)")
    print(f"op_ms.tail is p{pct:.2f} of {len(lat)} operations, {beyond} beyond it")
    if tally.restarts:
        print(f"restarts_per_s = {tally.restarts / sum(lat)!r} 1/s")
    return {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / sum(lat),
        "op_ms.p50": 1e3 * statistics.median(lat),
        "op_ms.tail": 1e3 * value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def provenance(args) -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip() or "unavailable"
    except OSError:
        rev = "unavailable"
    digest = hashlib.sha256()
    for path in sorted((SRC / "augrank").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ[k] for k in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "clients": 1,
        "loop": "closed",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["nonexist", "certify", "symbolic"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "augrank" / "__init__.py").is_file():
        print(f"error: no augrank sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        setup_samples = []
        for _ in range(SETUP_REPEATS):
            imported = child_import_seconds()
            start = time.perf_counter()
            next(workload.rounds(args.seed, workdir))
            workload.warmup(args.seed, workdir)
            setup_samples.append(imported + time.perf_counter() - start)
        setup_s = statistics.median(setup_samples)

        if args.trace:
            from layers import PER_LAYER, fold_probe
            from workloads import NONEXIST_BRAID

            probe = fold_probe(args.seed, NONEXIST_BRAID)
            tally, tracer, overhead = run_traced(workload, args.seed, args.seconds, workdir)
            values, units = tracer.metrics(probe, overhead), dict(PER_LAYER)
        else:
            tally, gaps = run_timed(workload, args.seed, args.seconds, workdir)
            values, units = end_to_end(tally, gaps, setup_s), dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"fail_ratio = {tally.failed / tally.attempted!r} ({tally.failed} of {tally.attempted})")
    for line in tally.first_failures:
        print(f"FAILED {line}")
    for name, val in values.items():
        print(f"{name} = {val!r} {units[name]}")
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": val, "unit": units[name]} for name, val in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
