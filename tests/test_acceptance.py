"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The late criteria run multi-minute searches; the
whole module is sized to finish in well under fifteen minutes.
"""

import random
import time

import pytest

from augrank import jsonio
from augrank.action import phi_letter
from augrank.augment import (
    Certificate,
    NotFound,
    SolveOptions,
    construct_satellite_aug,
    nonexistence_search,
    solve_full_rank,
)
from augrank.braids import BraidWord, iterated_torus_braid, satellite_braid, torus_braid
from augrank.checks import (
    check_block_structure,
    check_braid_relations,
    check_cabled_letter_forms,
    check_chain_rule,
    check_monomial_structure,
    check_tau_forms,
    check_transpose,
)
from augrank.freealg import NCPoly
from augrank.splitting import verify_cable_matrix_split, verify_commutes, verify_sum_collapse

TREFOIL = BraidWord(2, (1, 1, 1))
SIGMA1_FIFTH = BraidWord(2, (1,) * 5)


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name} failed: {detail}"


def _random_poly(rng: random.Random, n: int, terms: int = 3, deg: int = 3) -> NCPoly:
    built = {}
    for _ in range(terms):
        mon = []
        for _ in range(rng.randint(0, deg)):
            i = rng.randint(1, n)
            j = rng.choice([t for t in range(1, n + 1) if t != i])
            mon.append((i, j))
        built[tuple(mon)] = rng.randint(-4, 4)
    return NCPoly(n, built)


def test_criterion_01_braid_action_soundness():
    t0 = time.perf_counter()
    ok = all(check_braid_relations(n).ok for n in range(2, 7))
    rng = random.Random(11)
    for _ in range(25):
        n = rng.choice([2, 3, 4])
        x = _random_poly(rng, n)
        e = rng.randint(1, n - 1)
        ok = ok and phi_letter(-e, phi_letter(e, x)) == x and phi_letter(e, phi_letter(-e, x)) == x
    elapsed = time.perf_counter() - t0
    report("01 braid-action soundness", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_02_chain_rule():
    t0 = time.perf_counter()
    ok = True
    for n, count in ((2, 60), (3, 70), (4, 70)):
        ok = ok and check_chain_rule(n, count=count, seed=20 + n, max_len=5).ok
    elapsed = time.perf_counter() - t0
    report("02 chain rule, 200 random pairs", ok and elapsed < 30.0, f"{elapsed:.1f}s")


def test_criterion_03_transpose_symmetry():
    ok = True
    for n, count in ((2, 60), (3, 70), (4, 70)):
        ok = ok and check_transpose(n, count=count, seed=20 + n, max_len=5).ok
    report("03 transpose symmetry", ok)


def test_criterion_04_monomial_structure():
    ok = all(check_monomial_structure(n, count=70, seed=30 + n).ok for n in (2, 3, 4))
    report("04 monomial chain structure", ok)


def test_criterion_05_closed_forms():
    t0 = time.perf_counter()
    ok = all(check_tau_forms(n).ok for n in range(2, 9))
    grids = [(k, 1) for k in range(2, 10)] + [(k, 2) for k in (2, 3, 4)] + [(k, 3) for k in (2, 3)]
    for k, p in grids:
        ok = ok and check_cabled_letter_forms(k, p).ok
    elapsed = time.perf_counter() - t0
    report("05 band-word closed forms", ok and elapsed < 120.0, f"{elapsed:.1f}s")


def test_criterion_06_satellite_map():
    ok = True
    words = [("", 1), ("1", 2), ("1 1 1", 2), ("1 2", 3), ("1 -2", 3)]
    for k in (1, 2, 3):
        for p in (1, 2, 3):
            for text, min_k in words:
                if k >= min_k:
                    ok = ok and verify_cable_matrix_split(BraidWord.from_text(k, text), p).ok
    for k in (2, 3):
        for p in (1, 2, 3):
            for n_gen in range(1, k):
                ok = ok and verify_commutes(n_gen, k, p).ok
                ok = ok and verify_sum_collapse(n_gen, k, p).ok
    report("06 satellite splitting map", ok)


def test_criterion_07_trefoil():
    t0 = time.perf_counter()
    cert = solve_full_rank(TREFOIL, SolveOptions(restarts=256, seed=0))
    elapsed = time.perf_counter() - t0
    ok = (
        isinstance(cert, Certificate)
        and max(cert.residual_L, cert.residual_R) <= 1e-11
        and cert.rank == 2
        # closed-form solve: entry (2,2) forces a12 = 1, entry (1,2) then a21 = 1
        and abs(cert.assignment.value(1, 2) - 1) < 1e-8
        and abs(cert.assignment.value(2, 1) - 1) < 1e-8
        and elapsed < 1.0
    )
    report("07 trefoil certificate", ok, f"{elapsed:.2f}s")


@pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 4), (3, 5)])
def test_criterion_08_torus_knots(p, q):
    t0 = time.perf_counter()
    cert = solve_full_rank(torus_braid(p, q), SolveOptions(restarts=256, seed=0))
    elapsed = time.perf_counter() - t0
    ok = (
        isinstance(cert, Certificate)
        and max(cert.residual_L, cert.residual_R) <= 1e-9
        and cert.rank == p
        and elapsed < 60.0
    )
    report(f"08 torus knot ({p},{q})", ok, f"{elapsed:.1f}s")


def test_criterion_09_satellite_construction():
    t0 = time.perf_counter()
    tre = solve_full_rank(TREFOIL, SolveOptions(seed=0))
    five = solve_full_rank(SIGMA1_FIFTH, SolveOptions(seed=0))
    pair = construct_satellite_aug(tre, tre)
    cable_2235 = construct_satellite_aug(tre, five)
    elapsed = time.perf_counter() - t0
    ok = (
        pair.braid == satellite_braid(TREFOIL, TREFOIL)
        and max(pair.residual_L, pair.residual_R) <= 1e-9
        and pair.rank == 4
        and cable_2235.braid == iterated_torus_braid((2, 2), (3, 5))
        and max(cable_2235.residual_L, cable_2235.residual_R) <= 1e-9
        and cable_2235.rank == 4
        and pair.restarts == 0
        and cable_2235.restarts == 0
        and elapsed < 10.0
    )
    report("09 deterministic satellite construction", ok, f"{elapsed:.2f}s")


def test_criterion_10_rank4_satellite_search():
    beta = satellite_braid(SIGMA1_FIFTH, BraidWord(2, (1,)))
    t0 = time.perf_counter()
    cert = solve_full_rank(beta, SolveOptions(restarts=4096, seed=0))
    elapsed = time.perf_counter() - t0
    ok = (
        isinstance(cert, Certificate)
        and cert.accepted
        and cert.rank == 4
        and elapsed < 600.0
    )
    detail = f"{elapsed:.1f}s"
    if isinstance(cert, Certificate):
        detail += f", residuals ({cert.residual_L:.1e}, {cert.residual_R:.1e})"
    report("10 rank-4 satellite certificate", ok, detail)


def test_criterion_11_nonexistence_evidence():
    beta = satellite_braid(TREFOIL, BraidWord(2, (1,)))
    t0 = time.perf_counter()
    evidence = nonexistence_search(beta, SolveOptions(restarts=4096, seed=0))
    elapsed = time.perf_counter() - t0
    blocks_ok = all(check_block_structure(n, p).ok for n, p in ((2, 2), (3, 2), (2, 3)))
    ok = (
        not evidence.found
        and evidence.best_residual > 1e-9
        and evidence.residual_summary["count"] == 4096
        and blocks_ok
    )
    report(
        "11 nonexistence evidence + block facts",
        ok,
        f"best residual {evidence.best_residual:.3e} over 4096 restarts, {elapsed:.0f}s",
    )


def test_criterion_12_determinism():
    beta = torus_braid(3, 4)
    first = solve_full_rank(beta, SolveOptions(restarts=256, seed=0))
    second = solve_full_rank(beta, SolveOptions(restarts=256, seed=0))
    ok = isinstance(first, Certificate) and jsonio.dumps(first.to_obj()) == jsonio.dumps(second.to_obj())
    nf1 = solve_full_rank(
        satellite_braid(TREFOIL, BraidWord(2, (1,))), SolveOptions(restarts=5, seed=9)
    )
    nf2 = solve_full_rank(
        satellite_braid(TREFOIL, BraidWord(2, (1,))), SolveOptions(restarts=5, seed=9)
    )
    ok = ok and isinstance(nf1, NotFound) and nf1 == nf2
    report("12 seeded determinism", ok)
