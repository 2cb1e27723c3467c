"""Per-layer tracing from outside the library.

A :class:`Tracer` wraps public functions of augrank's modules while it is
installed and restores them when it is removed; nothing under ``src/`` is
edited.  A wrapped function is replaced in every augrank module namespace that
holds it, so calls made through ``from .x import f`` are seen too.

Each wrapped call is a span.  A span's busy time is its whole duration; its
self time is the duration minus that of the traced spans it directly
contains.  A call into a layer that is already on the span stack is passed
through untimed, so busy times never count one interval twice.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

from augrank import action, augment, cli, freealg, jsonio, splitting
from augrank.augment import NotFound
from augrank.freealg import NCPoly

PER_LAYER = (
    ("augment.fold.calls", "count"),
    ("augment.fold.points", "count"),
    ("augment.fold.busy_s", "s"),
    ("augment.fold.ns_per_point_letter", "ns"),
    ("augment.fold.ms.b1", "ms"),
    ("augment.fold.ms.b25", "ms"),
    ("augment.fold.ms.b1000", "ms"),
    ("augment.solver.restarts", "count"),
    ("augment.solver.fold_calls_per_restart", "count"),
    ("augment.solver.ms_per_restart", "ms"),
    ("augment.solver.self_s", "s"),
    ("augment.search.fold_calls_per_cert", "count"),
    ("augment.construct.self_s", "s"),
    ("augment.verify.busy_s", "s"),
    ("action.phi_letter.calls", "count"),
    ("action.phi_letter.busy_s", "s"),
    ("action.phi_matrix.busy_s", "s"),
    ("action.mat_mul.busy_s", "s"),
    ("freealg.budget_checks", "count"),
    ("freealg.mul.calls", "count"),
    ("freealg.mul.busy_s", "s"),
    ("freealg.peak_terms", "count"),
    ("splitting.psi.calls", "count"),
    ("splitting.psi.busy_s", "s"),
    ("jsonio.busy_s", "s"),
    ("jsonio.bytes", "B"),
    ("cli.self_s", "s"),
    ("trace.overhead_pct", "%"),
)

FOLD_PROBE_BATCHES = ((1, 400), (25, 400), (1000, 40))


class Tracer:
    """Spans and counters at the boundaries of augrank's layers."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []  # per open span: seconds in traced children
        self._active: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object, object]] = []

        self._span("augment.fold", augment, "eval_phi_matrices", self._after_fold)
        self._span("augment.solver", augment, "solve_full_rank", self._after_solve)
        self._span("augment.construct", augment, "construct_satellite_aug")
        for name in ("full_rank_residual", "ideal_residual", "aug_rank"):
            self._span("augment.verify", augment, name)
        self._span("action.phi_letter", action, "phi_letter", self._after_poly)
        for name in ("phi_left", "phi_right"):
            self._span("action.phi_matrix", action, name)
        self._span("action.mat_mul", action, "mat_mul")
        self._span("freealg.mul", NCPoly, "__mul__", self._after_poly)
        self._counter(NCPoly, "__add__", self._after_add)
        self._counter(freealg, "term_budget", self._after_budget)
        self._span("splitting.psi", splitting, "psi")
        for name in ("dumps", "dump_file", "load_file"):
            self._span("jsonio", jsonio, name, self._after_json)
        self._span("jsonio", jsonio, "loads", self._after_loads)
        self._span("cli", cli, "main")

    # -- installation ---------------------------------------------------------

    def _replace(self, owner: object, attr: str, make) -> None:
        original = getattr(owner, attr)
        wrapper = make(original)
        if isinstance(owner, type):
            holders = [(owner, a) for a, v in vars(owner).items() if v is original]
        else:
            holders = [
                (mod, a)
                for name, mod in list(sys.modules.items())
                if name == "augrank" or name.startswith("augrank.")
                for a, v in list(vars(mod).items())
                if v is original
            ]
        self._patches.extend((o, a, original, wrapper) for o, a in holders)

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- wrappers -------------------------------------------------------------

    def _span(self, layer: str, owner: object, attr: str, after=None) -> None:
        stack, active = self._stack, self._active
        calls, busy, self_time = self.calls, self.busy, self.self_time
        clock = time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if active[layer]:
                    return fn(*args, **kwargs)
                fold_calls, fold_busy = calls["augment.fold"], busy["augment.fold"]
                frame = [0.0]
                stack.append(frame)
                active[layer] += 1
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - start
                    active[layer] -= 1
                    stack.pop()
                    if stack:
                        stack[-1][0] += dt
                    calls[layer] += 1
                    busy[layer] += dt
                    self_time[layer] += dt - frame[0]
                if after is not None:
                    after(args, result, dt, calls["augment.fold"] - fold_calls,
                          busy["augment.fold"] - fold_busy)
                return result

            return wrapper

        self._replace(owner, attr, make)

    def _counter(self, owner: object, attr: str, after) -> None:
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(result)
                return result

            return wrapper

        self._replace(owner, attr, make)

    def _after_fold(self, args, result, dt, *_) -> None:
        beta, values = args[0], args[1]
        points = int(np.prod(np.shape(values)[:-2], dtype=np.int64))
        self.counts["fold.points"] += points
        self.counts["fold.point_letters"] += points * len(beta.letters)

    def _after_solve(self, args, result, dt, fold_calls, fold_busy) -> None:
        self.counts["solver.self_s"] += dt - fold_busy
        if isinstance(result, NotFound):
            self.counts["solver.restarts"] += result.residual_summary["count"]
            self.counts["solver.restart_fold_calls"] += fold_calls
            self.counts["solver.restart_s"] += dt
        else:
            self.counts["search.certs"] += 1
            self.counts["search.fold_calls"] += fold_calls

    def _after_poly(self, args, result, *_) -> None:
        self._after_add(result)

    def _after_add(self, result) -> None:
        if isinstance(result, NCPoly) and len(result.terms) > self.counts["peak_terms"]:
            self.counts["peak_terms"] = len(result.terms)

    def _after_budget(self, result) -> None:
        self.counts["budget_checks"] += 1

    def _after_json(self, args, result, *_) -> None:
        # dumps returns the text; dump_file and load_file take a path
        if isinstance(result, str):
            self.counts["json.bytes"] += len(result.encode("utf-8"))
        else:
            self.counts["json.bytes"] += os.path.getsize(args[0])

    def _after_loads(self, args, *_) -> None:
        self.counts["json.bytes"] += len(args[0].encode("utf-8"))

    # -- report ---------------------------------------------------------------

    def metrics(self, fold_probe: dict[str, float], overhead_pct: float) -> dict[str, float]:
        c = self.counts
        ratio = lambda a, b: a / b if b else 0.0
        values = {
            "augment.fold.calls": self.calls["augment.fold"],
            "augment.fold.points": int(c["fold.points"]),
            "augment.fold.busy_s": self.busy["augment.fold"],
            "augment.fold.ns_per_point_letter": ratio(1e9 * self.busy["augment.fold"], c["fold.point_letters"]),
            **fold_probe,
            "augment.solver.restarts": int(c["solver.restarts"]),
            "augment.solver.fold_calls_per_restart": ratio(c["solver.restart_fold_calls"], c["solver.restarts"]),
            "augment.solver.ms_per_restart": ratio(1e3 * c["solver.restart_s"], c["solver.restarts"]),
            "augment.solver.self_s": c["solver.self_s"],
            "augment.search.fold_calls_per_cert": ratio(c["search.fold_calls"], c["search.certs"]),
            "augment.construct.self_s": self.self_time["augment.construct"],
            "augment.verify.busy_s": self.busy["augment.verify"],
            "action.phi_letter.calls": self.calls["action.phi_letter"],
            "action.phi_letter.busy_s": self.busy["action.phi_letter"],
            "action.phi_matrix.busy_s": self.busy["action.phi_matrix"],
            "action.mat_mul.busy_s": self.busy["action.mat_mul"],
            "freealg.budget_checks": int(c["budget_checks"]),
            "freealg.mul.calls": self.calls["freealg.mul"],
            "freealg.mul.busy_s": self.busy["freealg.mul"],
            "freealg.peak_terms": int(c["peak_terms"]),
            "splitting.psi.calls": self.calls["splitting.psi"],
            "splitting.psi.busy_s": self.busy["splitting.psi"],
            "jsonio.busy_s": self.busy["jsonio"],
            "jsonio.bytes": int(c["json.bytes"]),
            "cli.self_s": self.self_time["cli"],
            "trace.overhead_pct": overhead_pct,
        }
        return {name: values[name] for name, _ in PER_LAYER}


def fold_probe(seed: int, braid) -> dict[str, float]:
    """Median milliseconds per eval_phi_matrices call at batch 1, 25 and 1000."""
    rng = np.random.default_rng(seed)
    n = braid.n
    out = {}
    for batch, reps in FOLD_PROBE_BATCHES:
        values = rng.standard_normal((batch, n, n)) + 1j * rng.standard_normal((batch, n, n))
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            augment.eval_phi_matrices(braid, values)
            times.append(time.perf_counter() - start)
        out[f"augment.fold.ms.b{batch}"] = 1e3 * float(np.median(times))
    return out
