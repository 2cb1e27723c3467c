"""Command-line front end.

Every run echoes its full configuration.  Output is byte-stable on one
machine (same numpy build, BLAS kernel and CPU), so reruns can be diffed;
the README lists what holds across BLAS kernels.  Exit codes: 0 success or
accepted certificate, 2 no certificate found / verification not accepted,
1 error, a usage error (unknown or missing option, bad option value) included.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import jsonio
from .action import phi_left, phi_right
from .augment import (
    Certificate,
    ConstructionError,
    SolveOptions,
    construct_satellite_aug,
    solve_full_rank,
)
from .braids import BraidWord, component_count, iterated_torus_braid, satellite_braid, torus_braid
from .checks import (
    check_block_structure,
    check_cabled_letter_forms,
    check_chain_rule,
    check_tau_forms,
    check_transpose,
    require_at_least,
)
from .freealg import TermBudgetError
from .splitting import verify_cable_matrix_split, verify_commutes

MINIMALITY_NOTE = (
    "companion braid index not certified minimal; the output depends on the "
    "companion word as given"
)


def _config(args) -> dict:
    """The run's configuration: every parsed option, in parser order, after the command."""
    return {key: val for key, val in vars(args).items() if key != "func"}


def _emit(args, fields: dict, text_lines: list[str]) -> None:
    """Print the configuration, then the fields (JSON) or the text lines."""
    config = _config(args)
    if args.format == "json":
        print(jsonio.dumps({"config": config, **fields}))
    else:
        line = "config: " + " ".join(f"{k}={v}" for k, v in config.items())
        print("\n".join([line, *text_lines]))


def cmd_phi(args) -> int:
    braid = BraidWord.from_text(args.n, args.word)
    m = (phi_left if args.side == "L" else phi_right)(braid)
    rows = m.render_entries()
    text_matrix = "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"
    _emit(args, {"matrix": m.to_obj()}, [text_matrix])
    return 0


def _option(name: str, text: str, parse, form: str):
    """parse(text), or a ValueError naming the option and the form it expects."""
    try:
        return parse(text)
    except ValueError:
        raise ValueError(f"{name} must be {form}, got {text!r}") from None


def cmd_satellite(args) -> int:
    if args.iterated_torus:
        if args.alpha is not None or args.k is not None or args.gamma:
            raise ValueError("satellite --iterated-torus takes no --alpha, --k or --gamma")
        if args.p is None:
            raise ValueError("satellite --iterated-torus needs --p")
        ints = lambda text: [int(t) for t in text.split(",") if t.strip()]
        form = "a comma list of integers such as 2,3"
        ps, qs = _option("--p", args.p, ints, form), _option("--q", args.q or "", ints, form)
        if len(ps) != len(qs):
            raise ValueError(f"--p and --q must list as many integers, got {len(ps)} and {len(qs)}")
        braid = iterated_torus_braid(ps, qs)
    else:
        if args.q is not None:
            raise ValueError("satellite --q needs --iterated-torus")
        if args.alpha is None or args.k is None or args.p is None:
            raise ValueError("satellite needs --alpha, --k and --p (or --iterated-torus)")
        alpha = BraidWord.from_text(args.k, args.alpha)
        gamma = BraidWord.from_text(_option("--p", args.p, int, "one integer strand count such as 2"), args.gamma or "")
        braid = satellite_braid(alpha, gamma)
    obj = {"braid": braid.to_obj(), "components": component_count(braid), "note": MINIMALITY_NOTE}
    _emit(
        args,
        obj,
        [
            f"n: {braid.n}",
            f"word: {braid.to_text()}",
            f"components: {component_count(braid)}",
            f"note: {MINIMALITY_NOTE}",
        ],
    )
    return 0


def cmd_torus(args) -> int:
    braid = torus_braid(args.p, args.q)
    obj = {"braid": braid.to_obj(), "components": component_count(braid)}
    _emit(args, obj, [f"n: {braid.n}", f"word: {braid.to_text()}"])
    return 0


def _emit_certificate(args, cert: Certificate) -> int:
    """Write cert to --output if given and print it; the exit code of a found certificate."""
    obj = cert.to_obj()
    if args.output:
        cert.save(args.output)
    _emit(
        args,
        {"found": True, "certificate": obj},
        [
            f"accepted certificate for closure of a {cert.braid.n}-strand word",
            f"residual_L: {cert.residual_L:.3e}  residual_R: {cert.residual_R:.3e}",
            f"ideal_residual: {cert.ideal_residual:.3e}",
            f"rank: {cert.rank}",
        ]
        + ([f"written: {args.output}"] if args.output else []),
    )
    return 0


def cmd_ar_search(args) -> int:
    braid = BraidWord.from_text(args.n, args.word)
    options = SolveOptions(restarts=args.restarts, seed=args.seed)
    out = solve_full_rank(braid, options)
    if isinstance(out, Certificate):
        return _emit_certificate(args, out)
    obj = out.to_obj()
    if args.output:
        jsonio.dump_file(args.output, {"config": _config(args), **obj})
    _emit(
        args,
        obj,
        [
            f"no certificate found after {args.restarts} restarts ({out.label})",
            f"best residual: {out.best_residual:.6e}",
            "stops: " + " ".join(f"{k}={v}" for k, v in out.residual_summary["stops"].items()),
        ],
    )
    return 2


def cmd_construct_aug(args) -> int:
    cert_alpha = Certificate.load(args.alpha_cert)
    cert_gamma = Certificate.load(args.gamma_cert)
    return _emit_certificate(args, construct_satellite_aug(cert_alpha, cert_gamma))


def cmd_verify(args) -> int:
    cert = Certificate.load(args.cert)
    rec = Certificate.measure(cert.braid, cert.assignment, cert.seed, cert.restarts, cert.tol)
    keys = ("residual_L", "residual_R", "ideal_residual", "rank")
    finite = lambda x: x if math.isfinite(x) else None  # an overflowing fold's inf or NaN: null
    numbers = lambda c: {key: finite(getattr(c, key)) for key in keys}
    accepted = rec.accepted and rec.rank == cert.rank
    obj = {"stored": numbers(cert), "recomputed": numbers(rec), "accepted": accepted}
    _emit(
        args,
        obj,
        [
            f"recomputed residual_L: {rec.residual_L:.3e}  residual_R: {rec.residual_R:.3e}",
            f"recomputed ideal_residual: {rec.ideal_residual:.3e}  rank: {rec.rank}",
            "accepted" if accepted else "NOT accepted",
        ],
    )
    return 0 if accepted else 2


_PSI_SUITE_WORDS = [
    ("", 1),
    ("1", 2),
    ("1 1 1", 2),
    ("1 2", 3),
    ("1 -2", 3),
]


# suite name -> report builder; the parser takes its --suite choices from the keys
SUITES = {
    "chainrule": lambda args: [check_chain_rule(args.n, count=args.count, seed=args.seed)],
    "transpose": lambda args: [check_transpose(args.n, count=args.count, seed=args.seed)],
    "psi": lambda args: [
        verify_cable_matrix_split(BraidWord.from_text(args.k, word), args.p)
        for word, min_k in _PSI_SUITE_WORDS
        if require_at_least("k", args.k, 1) >= min_k
    ],
    "commutes": lambda args: [
        verify_commutes(n_gen, args.k, args.p) for n_gen in range(1, require_at_least("k", args.k, 2))
    ],
    "sigma_n": lambda args: [check_cabled_letter_forms(args.k, args.p)],
    "tau": lambda args: [check_tau_forms(args.n)],
    "blocks": lambda args: [check_block_structure(args.n, args.p)],
}


def cmd_check(args) -> int:
    reports = SUITES[args.suite](args)
    ok = all(r.ok for r in reports)
    obj = {"status": "pass" if ok else "fail", "reports": [r.to_obj() for r in reports]}
    lines = []
    for r in reports:
        lines.append(f"{r.status}: {r.claim} {r.parameters}")
        for diff in r.diffs[:10]:
            lines.append(f"  diff: {diff}")
    lines.append("all checks passed" if ok else "CHECK FAILURES")
    _emit(args, obj, lines)
    return 0 if ok else 1


@functools.cache  # built once per process; parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="augrank",
        description="Braid satellites and maximal-rank augmentation certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("phi", help="print a symbolic action matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", default="")
    p.add_argument("--side", choices=["L", "R"], default="L")
    add_format(p)
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("satellite", help="build a satellite or iterated torus word")
    p.add_argument("--alpha", help="companion word")
    p.add_argument("--k", type=int, help="companion strand count")
    p.add_argument("--gamma", default="", help="pattern word (empty = cable only)")
    p.add_argument("--p", help="pattern strand count, or comma list with --iterated-torus")
    p.add_argument("--q", help="comma list of torus powers (with --iterated-torus)")
    p.add_argument("--iterated-torus", action="store_true")
    add_format(p)
    p.set_defaults(func=cmd_satellite)

    p = sub.add_parser("torus", help="build a torus braid word")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_torus)

    p = sub.add_parser("ar-search", help="search for a maximal-rank certificate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", default="")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=256)
    p.add_argument("--output")
    add_format(p)
    p.set_defaults(func=cmd_ar_search)

    p = sub.add_parser("construct-aug", help="combine two certificates into a satellite one")
    p.add_argument("--alpha-cert", required=True)
    p.add_argument("--gamma-cert", required=True)
    p.add_argument("--output")
    add_format(p)
    p.set_defaults(func=cmd_construct_aug)

    p = sub.add_parser("verify", help="recompute the numbers stored in a certificate")
    p.add_argument("--cert", required=True)
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("check", help="run an exact identity suite")
    p.add_argument("--suite", required=True, choices=list(SUITES))
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=50)
    add_format(p)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, which would read as "not found"
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (TermBudgetError, ValueError, ConstructionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # e.g. lambda's mu ** writhe overflowing on a long word
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
