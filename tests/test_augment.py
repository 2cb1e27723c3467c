import collections
import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from augrank import augment, jsonio
from augrank.action import phi_left, phi_matrices, phi_right
from augrank.augment import (
    ACCEPT_TOL,
    CHUNK,
    FD_STEP,
    FLOOR,
    FTOL,
    LAM_MAX,
    LAM_MIN,
    LAM_START,
    MAX_ITER,
    STALL_ABOVE,
    TRIALS,
    Certificate,
    ConstructionError,
    MuOneError,
    NotFound,
    STOP_REASONS,
    SolveOptions,
    _cost,
    _damped_steps,
    _lm_chunk,
    _normal_equations,
    _sign_residual,
    aug_rank,
    construct_satellite_aug,
    eval_phi_matrices,
    full_rank_residual,
    ideal_residual,
    matrix_a,
    matrix_delta,
    nonexistence_search,
    numerical_rank,
    sign_vector,
    solve_full_rank,
    values_to_array,
)
from augrank.braids import BraidWord, cable, perm, satellite_braid, torus_braid, writhe
from augrank.checks import check_block_structure
from augrank.freealg import Assignment, NCPoly, SparsePoly, gen_order, term_budget
from augrank.splitting import TensorPoly

from strategies import braid_words, nc_polys

TREFOIL = BraidWord(2, (1, 1, 1))
C10_WORD = satellite_braid(BraidWord(2, (1,) * 5), BraidWord(2, (1,)))
C11_WORD = satellite_braid(TREFOIL, BraidWord(2, (1,)))
# a B4 knot word of whose 16 restarts at seed 0 some end at damping_overflow
# and some at no_descent, under every BLAS kernel tried (SkylakeX: restarts 10
# and 13, and 4); every restart of criterion 11's word stalls
OVERFLOW_WORD = BraidWord(4, (2, -3, -2, 3, -2, 2, 2, -2, -3, 2, -1))
# sigma2^-3 sigma1^-3, a connected sum of two trefoils: some of its restarts end
# at zeros of the sign equations whose certificates fail Certificate.accepted
GRANNY = BraidWord(3, (-2, -2, -2, -1, -1, -1))
# the companions and patterns of the certify benchmark
TORUS_PQ = ((2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (4, 5))


def trefoil_assignment(lam=1.0, mu=-1.0, x=1.0, y=1.0):
    return Assignment(2, {(1, 2): x, (2, 1): y}, lam, mu)


def random_assignment(n, seed, lam=1.0, mu=2.0):
    rng = np.random.default_rng(seed)
    vals = {g: complex(rng.standard_normal(), rng.standard_normal()) for g in gen_order(n)}
    return Assignment(n, vals, lam, mu)


def restart_draws(beta, seed, restarts):
    """Each given restart's generator, and the start it draws first, as solve_full_rank draws them."""
    children = np.random.SeedSequence(seed).spawn(max(restarts) + 1)
    rngs = [np.random.default_rng(children[k]) for k in restarts]
    return rngs, np.array([rng.standard_normal(2 * beta.n * (beta.n - 1)) for rng in rngs])


def restart_starts(beta, seed, restarts):
    """The starting points solve_full_rank draws for the given restart indices."""
    x0 = restart_draws(beta, seed, restarts)[1]
    m = x0.shape[1] // 2
    return x0[:, :m] + 1j * x0[:, m:]


def search_accept(beta, seed, restarts, budget=0):
    """solve_full_rank's accept for _lm_chunk on rows that are the given restarts of a search of this budget.

    Every call draws mu from a fresh copy of the row's substream, so the
    same row at the same point always gets the same certificate.
    """
    return lambda k, z: augment._accept(beta, restart_draws(beta, seed, restarts)[0], seed, budget, k, z)


def reject(k, z):
    """An accept for _lm_chunk that rejects every row it is offered."""
    return None


def accept_any(k, z):
    """An accept for _lm_chunk that accepts every row it is offered, its index standing in for a certificate."""
    return k


class TestMatrices:
    def test_matrix_a_trefoil_values(self):
        m = matrix_a(2, trefoil_assignment())
        assert np.allclose(m, [[2, 1], [1, 2]])
        assert numerical_rank(m) == 2

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_matrix_a_entries_bitwise(self, n):
        eps = random_assignment(n, n, mu=complex(0.3, -1.7))
        want = [
            [1 - eps.mu if i == j else eps.value(i, j) if i < j else -eps.mu * eps.value(i, j)
             for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ]
        assert matrix_a(n, eps).tobytes() == np.array(want, dtype=complex).tobytes()

    def test_matrix_delta(self):
        assert np.allclose(matrix_delta(TREFOIL), np.diag([-1.0, 1.0]))
        assert np.allclose(matrix_delta(BraidWord(3, (1, -1))), np.eye(3))

    def test_matrix_delta_satellite_writhe(self):
        alpha, gamma = TREFOIL, BraidWord(2, (1,))
        sat = satellite_braid(alpha, gamma)
        w = 4 * writhe(alpha) + writhe(gamma)
        assert writhe(sat) == w
        assert matrix_delta(sat)[0, 0] == (-1) ** w


class TestResiduals:
    def test_unknot(self):
        eps = Assignment(1, {}, 1.0, 2.0)
        assert full_rank_residual(BraidWord(1, ()), eps) == (0.0, 0.0)

    def test_trefoil_exact_solution(self):
        assert full_rank_residual(TREFOIL, trefoil_assignment()) == (0.0, 0.0)

    def test_trefoil_perturbed(self):
        res_l, _ = full_rank_residual(TREFOIL, trefoil_assignment(x=2.0, y=1.0))
        assert res_l >= 1.0  # the (1,2) entry 1 - yx evaluates to -1

    def test_ideal_residual_unknot(self):
        assert ideal_residual(BraidWord(1, ()), Assignment(1, {}, 1.0, 2.0)) == 0.0
        assert ideal_residual(BraidWord(1, ()), Assignment(1, {}, 1.5, 2.0)) > 0

    def test_ideal_residual_trefoil(self):
        # lambda (-mu)^w = 1 with w = 3, mu = -1 forces lambda = 1
        assert ideal_residual(TREFOIL, trefoil_assignment(lam=1.0, mu=-1.0)) < 1e-15
        assert ideal_residual(TREFOIL, trefoil_assignment(lam=1.0, mu=-1.0 + 1e-3)) > 1e-5

    @given(braid_words(min_n=2, max_n=4, max_len=6), st.integers(0, 50))
    def test_batched_fold_matches_per_item(self, b, seed):
        rng = np.random.default_rng(seed)
        batch = rng.standard_normal((7, b.n, b.n)) + 1j * rng.standard_normal((7, b.n, b.n))
        ml, mr = eval_phi_matrices(b, batch)
        for t in range(7):
            ml_t, mr_t = eval_phi_matrices(b, batch[t])
            assert np.allclose(ml[t], ml_t, atol=0, rtol=1e-14)
            assert np.allclose(mr[t], mr_t, atol=0, rtol=1e-14)

    @given(braid_words(min_n=2, max_n=4, max_len=6), st.integers(0, 100))
    def test_numeric_fold_matches_symbolic(self, b, seed):
        eps = random_assignment(b.n, seed)
        ml, mr = eval_phi_matrices(b, values_to_array(eps.values, b.n))
        sym_l, sym_r = phi_left(b), phi_right(b)
        for i in range(1, b.n + 1):
            for j in range(1, b.n + 1):
                for sym, num in ((sym_l, ml), (sym_r, mr)):
                    want = eps.evaluate(sym.at(i, j))
                    got = num[i - 1, j - 1]
                    assert abs(want - got) <= 1e-10 * max(1.0, abs(want))


class TestJacobian:
    """_evaluate's forward-difference quotient times 1 / h is the division by h."""

    @staticmethod
    def quotients(beta, z):
        # _evaluate's Jacobian and the division form, from the same fold
        outs, resid = [], _sign_residual(beta)
        _, jac = augment._evaluate(lambda p: outs.append(resid(p)) or outs[-1], z)
        out = outs[0].reshape(len(z), z.shape[1] + 1, -1)
        h = FD_STEP * np.maximum(1.0, np.abs(z))
        return jac, (out[:, 1:] - out[:, :1]) / h[:, :, None]

    def test_equals_division(self):
        # numpy divides by a real h promoted to complex as (re, im) times 1 / h
        rng = np.random.default_rng(11)
        z = 10 ** rng.uniform(-3, 3, (63, 12)) * np.exp(2j * np.pi * rng.uniform(size=(63, 12)))
        jac, div = self.quotients(C11_WORD, z)
        assert np.isfinite(div).all()
        assert np.array_equal(jac, div)

    def test_non_finite_entries_stay_non_finite(self):
        # T(2,601)'s fold overflows past |z| near 3: the same entries break down
        rng = np.random.default_rng(12)
        z = rng.uniform(2, 5, (16, 2)) * np.exp(2j * np.pi * rng.uniform(size=(16, 2)))
        with np.errstate(over="ignore", invalid="ignore"):
            jac, div = self.quotients(torus_braid(2, 601), z)
        finite = np.isfinite(div)
        assert 0 < finite.sum() < finite.size
        assert np.array_equal(np.isfinite(jac), finite)
        assert np.array_equal(jac[finite], div[finite])


class TestFold:
    def test_batched_output_is_c_contiguous(self):
        # the solver's cost sums each residual row in memory order, so a
        # non-contiguous result would change the search's last bits
        b = satellite_braid(TREFOIL, BraidWord(2, (1,)))
        rng = np.random.default_rng(0)
        for batch in ((), (7,), (3, 4)):
            values = rng.standard_normal(batch + (4, 4)) + 1j * rng.standard_normal(batch + (4, 4))
            for m in eval_phi_matrices(b, values):
                assert m.shape == batch + (4, 4)
                assert m.flags.c_contiguous

    def test_overflowing_row_leaves_the_others_alone(self):
        b = satellite_braid(TREFOIL, BraidWord(2, (1,)))
        rng = np.random.default_rng(1)
        batch = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
        batch[2] *= 1e120
        with np.errstate(over="ignore", invalid="ignore"):
            ml, mr = eval_phi_matrices(b, batch)
            assert not np.isfinite(ml[2]).all()
            for t in (0, 1, 3, 4):
                ml_t, mr_t = eval_phi_matrices(b, batch[t])
                assert np.allclose(ml[t], ml_t, atol=0, rtol=1e-14)
                assert np.allclose(mr[t], mr_t, atol=0, rtol=1e-14)

    @given(nc_polys(n=3, max_terms=6))
    def test_zero_operand_fast_path(self, x):
        # the fold multiplies by the zeroed entries of v; those products and
        # sums return at once and must equal what the general loops give
        tensor = TensorPoly(3, 2, {(m, ((1, 2),)): c for m, c in x.terms.items()})
        for y, zero in ((x, NCPoly.zero(3)), (tensor, TensorPoly.zero(3, 2))):
            for got in (y * zero, zero * y, y * 0, 0 * y):
                assert got == zero
            for got in (y - zero, y + zero, y - 0):
                assert got == y
                assert list(got.terms.items()) == list(y.terms.items())
            with pytest.raises(ValueError, match="ambient"):
                y * type(zero).zero(*(a + 1 for a in zero._amb))


class TestRank:
    def test_zero_assignment_rank(self):
        eps = Assignment(3, {g: 0.0 for g in gen_order(3)}, 1.0, 2.0)
        assert aug_rank(eps, 3) == 3

    def test_trefoil_rank(self):
        assert aug_rank(trefoil_assignment(), 2) == 2

    def test_rank_deficient_point(self):
        # det (1-mu)^2 + mu x y = 0 at mu=2, x=1, y=-1/2
        eps = Assignment(2, {(1, 2): 1.0, (2, 1): -0.5}, 1.0, 2.0)
        assert aug_rank(eps, 2) == 1

    def test_mu_one_is_out_of_theory(self):
        eps = Assignment(2, {(1, 2): 1.0, (2, 1): 1.0}, 1.0, 1.0)
        with pytest.raises(MuOneError):
            aug_rank(eps, 2)

    def test_numerical_rank_threshold(self):
        m = np.diag([1.0, 1e-12])
        assert numerical_rank(m) == 1
        assert numerical_rank(np.zeros((2, 2))) == 0

    @pytest.mark.parametrize(
        "call, want",
        [
            (lambda: eval_phi_matrices(TREFOIL, np.zeros((3, 3))), ValueError("values must have trailing shape (2, 2)")),
            (lambda: matrix_a(3, trefoil_assignment()), ValueError("assignment ambient mismatch")),
            (
                lambda: Certificate.measure(torus_braid(3, 4), trefoil_assignment(), 0, 1, ACCEPT_TOL),
                ValueError("assignment ambient mismatch"),
            ),
            (lambda: numerical_rank(np.zeros((0, 0))), 0),
        ],
        ids=["fold-shape", "matrix_a-ambient", "measure-ambient", "empty-rank"],
    )
    def test_edge_inputs(self, call, want):
        # values on the wrong number of strands are refused; an empty matrix has rank 0
        if isinstance(want, Exception):
            with pytest.raises(type(want)) as info:
                call()
            assert str(info.value) == str(want)
        else:
            assert call() == want


class TestSolver:
    def test_trefoil_certificate(self):
        cert = solve_full_rank(TREFOIL, SolveOptions(seed=0))
        assert isinstance(cert, Certificate)
        assert cert.accepted
        assert max(cert.residual_L, cert.residual_R) <= 1e-12
        # the 2x2 system has the unique solution (1, 1)
        assert abs(cert.assignment.value(1, 2) - 1) < 1e-8
        assert abs(cert.assignment.value(2, 1) - 1) < 1e-8
        assert cert.rank == 2
        assert cert.ideal_residual <= 1e-9

    @pytest.mark.parametrize(
        "beta",
        [torus_braid(p, q) for p, q in TORUS_PQ] + [C10_WORD],
        ids=[f"T({p},{q})" for p, q in TORUS_PQ] + ["c10"],
    )
    def test_certificate_precision(self, beta):
        # a found restart runs on to the floor: every residual ends far below ACCEPT_TOL
        cert = solve_full_rank(beta, SolveOptions(seed=0))
        assert isinstance(cert, Certificate) and cert.rank == beta.n
        assert max(cert.residual_L, cert.residual_R, cert.ideal_residual) <= 1e-12

    def test_unknot_certificate(self):
        cert = solve_full_rank(BraidWord(1, ()), SolveOptions(seed=0))
        assert isinstance(cert, Certificate)
        assert cert.rank == 1
        assert cert.residual_L == cert.residual_R == 0.0

    @pytest.mark.parametrize("field", ["restarts", "seed"])
    def test_options_reject_negative_values(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 0, got -1"):
            SolveOptions(**{field: -1})

    def test_non_knot_rejected(self):
        with pytest.raises(ValueError, match="knot"):
            solve_full_rank(BraidWord(2, ()))

    def test_not_found_carries_evidence(self):
        beta = satellite_braid(TREFOIL, BraidWord(2, (1,)))
        out = solve_full_rank(beta, SolveOptions(restarts=8, seed=0))
        assert isinstance(out, NotFound)
        assert out.best_residual > ACCEPT_TOL
        assert out.residual_summary["count"] == 8
        assert out.residual_summary["min"] <= out.residual_summary["max"]
        assert sum(out.residual_summary["stops"].values()) == 8

    def test_non_finite_restarts_are_not_evidence(self):
        # T(2,601) does have a maximal-rank augmentation, but the plain residual
        # overflows from some starts; those restarts must not count as evidence
        with np.errstate(over="raise"):
            out = solve_full_rank(torus_braid(2, 601), SolveOptions(restarts=4, seed=0))
        assert isinstance(out, NotFound)
        summary = out.residual_summary
        assert summary["count"] == 4
        assert summary["stops"] == {**dict.fromkeys(STOP_REASONS, 0), "max_iter": 2, "non_finite": 2}
        assert np.isfinite(out.best_residual)
        assert out.best_residual == summary["min"]
        assert np.isfinite(summary["max"])
        # every restart broke down, so the outcome says nothing about the braid
        assert out.to_obj()["label"] == "inconclusive"

    @pytest.mark.parametrize(
        "broken, stalled, label",
        [
            pytest.param(2, 0, "evidence-only", id="2-evidence-only"),
            pytest.param(3, 0, "inconclusive", id="3-inconclusive"),
            pytest.param(1, 3, "evidence-only", id="1-stalled-evidence-only"),
        ],
    )
    def test_label_counts_broken_restarts(self, broken, stalled, label):
        # a stalled restart ended at a local minimum: evidence, not a breakdown
        stops = dict.fromkeys(STOP_REASONS, 0)
        stops.update(no_descent=4 - broken - stalled, stalled=stalled, max_iter=broken - 1, non_finite=1)
        out = NotFound(TREFOIL, 0, 4, ACCEPT_TOL, {"count": 4, "min": 0.5, "stops": stops})
        assert out.label == out.to_obj()["label"] == label

    def test_no_finite_restart_writes_null_best(self):
        out = solve_full_rank(satellite_braid(TREFOIL, BraidWord(2, (1,))), SolveOptions(restarts=0))
        assert isinstance(out, NotFound)
        assert out.residual_summary["count"] == 0
        assert not any(out.residual_summary["stops"].values())
        assert out.best_residual == np.inf
        assert out.to_obj()["best_residual"] is None
        assert nonexistence_search(TREFOIL, SolveOptions(restarts=0)).to_obj()["best_residual"] is None

    def test_zero_restarts_are_inconclusive(self):
        # the trefoil has a certificate; a search that ran no restart is no evidence against one
        for beta in (TREFOIL, C11_WORD):
            out = solve_full_rank(beta, SolveOptions(restarts=0))
            assert isinstance(out, NotFound)
            assert out.label == out.to_obj()["label"] == "inconclusive"

    def test_chunk_independence(self):
        # criterion 10's braid; with seed 0 its first accepted restart is not restart 0
        beta = satellite_braid(BraidWord(2, (1,) * 5), BraidWord(2, (1,)))
        z0 = restart_starts(beta, 0, range(8))
        resid = _sign_residual(beta)
        chunk_z, chunk_ma, chunk_stop, _ = _lm_chunk(resid, z0, reject)
        alone = [_lm_chunk(resid, z0[k : k + 1], reject) for k in range(8)]
        assert np.array_equal(chunk_z, np.concatenate([z for z, _, _, _ in alone]))
        assert np.array_equal(chunk_ma, [ma[0] for _, ma, _, _ in alone])
        assert list(chunk_stop) == [stop[0] for _, _, stop, _ in alone]
        accepted = [k for k, (_, ma, _, _) in enumerate(alone) if ma[0] <= ACCEPT_TOL]
        assert accepted and accepted[0] > 0
        cert = solve_full_rank(beta, SolveOptions(restarts=8, seed=0))
        assert isinstance(cert, Certificate)
        z_win = alone[accepted[0]][0][0]
        assert [cert.assignment.value(*g) for g in gen_order(beta.n)] == list(z_win)

    def test_singular_row_does_not_stop_the_others(self):
        rng = np.random.default_rng(5)
        j = rng.standard_normal((3, 6, 4)) + 1j * rng.standard_normal((3, 6, 4))
        jtj = j.conj().transpose(0, 2, 1) @ j
        jtj[1] = 0.0
        grad = rng.standard_normal((3, 4)) + 0j
        # row 1's damped system is 0 + 0 * max(0, 1e-12) on the diagonal: singular
        steps = _damped_steps(jtj, np.array([0.1, 0.0, 0.1]), grad)
        assert np.isnan(steps[1]).all()
        assert np.array_equal(steps[[0, 2]], _damped_steps(jtj[[0, 2]], np.array([0.1, 0.1]), grad[[0, 2]]))
        for k in (0, 2):
            want = np.linalg.solve(jtj[k] + 0.1 * np.diag(np.diagonal(jtj[k]).real), -grad[k])
            assert np.allclose(steps[k], want, rtol=1e-12, atol=0)

    def test_huge_budget_stops_at_restart_0(self):
        # the chunk schedule is lazy: a search accepted at restart 0 never walks the rest of its budget
        cert = solve_full_rank(TREFOIL, SolveOptions(restarts=10**20))
        assert isinstance(cert, Certificate) and cert.accepted
        assert cert.to_obj() == {**solve_full_rank(TREFOIL, SolveOptions(restarts=1)).to_obj(), "restarts": 10**20}

    @pytest.mark.parametrize("restarts", [1, 2, 3, 256])
    def test_search_returns_only_accepted_certificates(self, restarts):
        # a restart wins only through Certificate.accepted, the rule verify runs
        out = solve_full_rank(GRANNY, SolveOptions(restarts=restarts, seed=0))
        if restarts == 256:
            assert isinstance(out, Certificate)
        if isinstance(out, Certificate):
            stored = Certificate.from_obj(out.to_obj())
            rec = Certificate.measure(GRANNY, stored.assignment, stored.seed, stored.restarts, stored.tol)
            assert out.accepted and rec.accepted and rec.rank == stored.rank == 3
        else:
            assert out.label == "inconclusive" or not out.residual_summary["stops"]["rejected"]

    def test_rejected_restarts_are_not_evidence(self, monkeypatch):
        # a restart rejected at a zero of the sign equations stays out of the
        # quartiles, and the search says nothing about the braid
        monkeypatch.setattr(augment, "_accept", lambda *args: None)
        out = solve_full_rank(TREFOIL, SolveOptions(restarts=1))
        assert isinstance(out, NotFound)
        assert out.residual_summary == {"count": 1, "stops": {**dict.fromkeys(STOP_REASONS, 0), "rejected": 1}}
        assert out.best_residual == np.inf and out.to_obj()["best_residual"] is None
        assert out.label == out.to_obj()["label"] == "inconclusive"
        out = solve_full_rank(C10_WORD, SolveOptions(restarts=8, seed=0))
        assert isinstance(out, NotFound) and out.label == "inconclusive"
        summary = out.residual_summary
        assert summary["count"] == 8 and summary["stops"]["rejected"] >= 1
        # every finite row at or below ACCEPT_TOL was offered and rejected
        assert summary["min"] > ACCEPT_TOL

    def test_determinism(self):
        c1 = solve_full_rank(torus_braid(2, 5), SolveOptions(seed=7))
        c2 = solve_full_rank(torus_braid(2, 5), SolveOptions(seed=7))
        assert jsonio.dumps(c1.to_obj()) == jsonio.dumps(c2.to_obj())

    def test_lambda_mu_relation(self):
        cert = solve_full_rank(TREFOIL, SolveOptions(seed=3))
        lam, mu, w = cert.assignment.lam, cert.assignment.mu, writhe(cert.braid)
        assert abs(lam * (-mu) ** w - 1) < 1e-8
        assert cert.ideal_residual < 1e-9

    def test_rank_stable_across_mu_samples(self):
        cert = solve_full_rank(torus_braid(3, 4), SolveOptions(seed=0))
        rng = np.random.default_rng(123)
        w = writhe(cert.braid)
        for _ in range(8):
            mu = complex(rng.standard_normal(), rng.standard_normal())
            if abs(mu) < 0.2 or abs(mu - 1) < 0.2:
                continue
            lam = (-1) ** (w % 2) * mu ** (-w)
            eps = Assignment(3, dict(cert.assignment.values), lam, mu)
            assert ideal_residual(cert.braid, eps) < 1e-8
            assert aug_rank(eps, 3) == 3


STOP_NAMES = ("",) + STOP_REASONS  # _lm_chunk's stop code k names STOP_NAMES[k]; "" is still running


def stop_names(codes):
    return [STOP_NAMES[k] for k in codes]


def reference_accepted(z, ma, stop, cut, won, accept):
    """The offer after a step, on stop names: the new cut and the winner's certificate.

    Each row before the cut that has stopped finite, not yet rejected, with
    max-abs residual at most ACCEPT_TOL goes to accept, lowest row first;
    None marks it rejected, and a certificate moves the cut to it.
    """
    for k in np.flatnonzero(~np.isin(stop, ["", "non_finite", "rejected"]) & (ma <= ACCEPT_TOL)):
        if k >= cut:
            break
        cert = accept(k, z[k])
        if cert is not None:
            return k, cert
        stop[k] = "rejected"
    return cut, won


def reference_chunk(resid, z0, accept, stall=True):
    """_lm_chunk's rule, step by step: every running row takes one damping trial per step.

    A row whose last trial descended (or that has not yet tried) starts an
    iteration: its stop checks, then its normal equations from a Jacobian
    fold of its own.  A row whose last trial missed retries its iteration
    at its raised damping; after TRIALS trials it stops as no_descent.
    After each step the rows that could be accepted are offered to accept
    (reference_accepted), and the rows after the lowest accepted row stop
    running, frozen there, and keep "".  With stall=False a row never stops
    as stalled: the rule before FTOL.
    """
    def jacobian(z, c):  # forward differences, shape (B, m, d)
        h = FD_STEP * np.maximum(1.0, np.abs(z))
        cp = resid((z[:, None, :] + h[:, :, None] * np.eye(z.shape[1])).reshape(-1, z.shape[1]))
        return (cp.reshape(*z.shape, -1) - c[:, None, :]) / h[:, :, None]

    with np.errstate(over="ignore", invalid="ignore"):
        c = resid(z := z0.astype(complex))
        cost, ma, lam, stop = _cost(c), np.abs(c).max(axis=1), np.full(len(z), LAM_START), np.full(len(z), "", object)
        order = np.arange(len(z))
        descents, tries = np.zeros(len(z), int), np.zeros(len(z), int)  # tries: trials of the current iteration
        system = {}  # row -> (J^H c, J^H J) of its current iteration
        cut, won = len(z), None
        while True:
            cut, won = reference_accepted(z, ma, stop, cut, won, accept)
            running = (stop == "") & (order < cut)
            if not running.any():
                return z, ma, stop, won
            fresh = np.flatnonzero(running & (tries == 0))
            stop[fresh[~np.isfinite(cost[fresh])]] = "non_finite"
            stop[fresh[np.isfinite(cost[fresh]) & (ma[fresh] < FLOOR)]] = "floor"
            fresh = fresh[np.isfinite(cost[fresh]) & (ma[fresh] >= FLOOR)]
            stop[fresh[descents[fresh] == MAX_ITER]] = "max_iter"
            fresh = fresh[descents[fresh] < MAX_ITER]
            if fresh.size:
                grad, jtj = _normal_equations(jacobian(z[fresh], c[fresh]), c[fresh])
                bad = ~(np.isfinite(grad).all(axis=1) & np.isfinite(jtj).all(axis=(1, 2)))
                stop[fresh[bad]] = "non_finite"
                for k, g, a in zip(fresh[~bad], grad[~bad], jtj[~bad]):
                    system[k] = g, a
            rows = np.flatnonzero(running & (stop == ""))
            if rows.size:
                grad, jtj = (np.array([system[k][part] for k in rows]) for part in range(2))
                tries[rows] += 1
                ct = resid(zt := z[rows] + augment._damped_steps(jtj, lam[rows], grad))
                costt = _cost(ct)
                down = costt < cost[rows]  # a singular system's NaN step misses
                hit, miss = rows[down], rows[~down]
                small = cost[hit] - costt[down] <= FTOL * cost[hit]
                z[hit], c[hit], cost[hit], ma[hit] = zt[down], ct[down], costt[down], np.abs(ct[down]).max(axis=1)
                if stall:
                    stop[hit[small & (ma[hit] >= STALL_ABOVE)]] = "stalled"
                lam[hit] = np.maximum(lam[hit] / 3.0, LAM_MIN)
                descents[hit] += 1
                tries[hit] = 0
                lam[miss] *= 10.0
                stop[miss[lam[miss] > LAM_MAX]] = "damping_overflow"
                stop[rows[(stop[rows] == "") & (tries[rows] == TRIALS)]] = "no_descent"


def assert_matches_reference(resid, z0, accept):
    """_lm_chunk and reference_chunk give equal points, residuals, stops and certificates; returns the stops."""
    z, ma, stop, won = _lm_chunk(resid, z0, accept)
    z_ref, ma_ref, stop_ref, won_ref = reference_chunk(resid, z0, accept)
    assert np.array_equal(z, z_ref)
    assert np.array_equal(ma, ma_ref)
    assert stop_names(stop) == list(stop_ref)
    assert won == won_ref
    return list(stop_ref)


def test_overflow_word_stop_counts():
    # which of its restarts end at no_descent, damping_overflow, stalled or
    # max_iter hangs on the BLAS kernel; these outcomes held on every kernel tried
    out = solve_full_rank(OVERFLOW_WORD, SolveOptions(restarts=16, seed=0))
    assert isinstance(out, NotFound)
    stops = out.residual_summary["stops"]
    assert sum(stops.values()) == 16
    assert stops["no_descent"] >= 1 and stops["damping_overflow"] >= 1
    assert f"{out.best_residual:.6g}" == f"{out.residual_summary['min']:.6g}" == "1"
    assert out.label == "evidence-only"


class TestTrialRounds:
    """_lm_chunk against the one-level-per-fold reference: equal points, residuals, stops and winners."""

    @pytest.mark.parametrize(
        "beta, restarts, accepts, stops",
        [
            # restart 2 is accepted while restart 1 runs on to max_iter; 3, 5 and 6 are cut off
            (C10_WORD, range(8), True, {"floor", "stalled", "max_iter", ""}),
            (C10_WORD, range(8), False, {"rejected", "stalled", "max_iter"}),
            (C11_WORD, range(8), True, {"stalled"}),
            # ... : at least the other stops; the rest hang on the BLAS kernel
            (OVERFLOW_WORD, range(16), True, {"no_descent", "damping_overflow", ...}),
            (torus_braid(2, 601), range(4), True, {"non_finite", "max_iter"}),
            (torus_braid(3, 4), range(8), True, {"floor", ""}),
            # heavy ladder traffic: 45% of its row-iterations go past the row's own level
            (BraidWord(3, (1, -2, 1, -2)), range(8), True, {"max_iter"}),
        ],
        ids=["c10", "c10-no-accept", "c11", "overflow", "T(2,601)", "T(3,4)-cut-off", "figure-eight"],
    )
    def test_matches_reference(self, beta, restarts, accepts, stops):
        z0, accept = restart_starts(beta, 0, restarts), search_accept(beta, 0, restarts) if accepts else reject
        got = set(assert_matches_reference(_sign_residual(beta), z0, accept))
        assert got >= stops - {...} if ... in stops else got == stops

    def test_rejected_rows_cut_nothing(self):
        # an accept that rejects every row: no row is cut off, and the rows
        # offered, each once, are the finite ones at or below ACCEPT_TOL
        resid, z0 = _sign_residual(C10_WORD), restart_starts(C10_WORD, 0, range(8))
        offered = []
        _, ma, stop, won = _lm_chunk(resid, z0, lambda k, z: offered.append(k) or reject(k, z))
        names = np.array(stop_names(stop))
        assert won is None and "" not in names
        assert sorted(offered) == list(np.flatnonzero(names == "rejected")) == list(np.flatnonzero(ma <= ACCEPT_TOL))
        assert len(offered) == len(set(offered)) >= 1

    @pytest.mark.parametrize(
        "beta",
        [C10_WORD] + [torus_braid(p, q) for p, q in TORUS_PQ],
        ids=["c10"] + [f"T({p},{q})" for p, q in TORUS_PQ],
    )
    def test_stall_rule_keeps_accepted_rows(self, beta):
        # a row heading for a zero never stalls: every row the rule without the
        # stall test accepts ends at the same point, residual and stop
        resid, z0 = _sign_residual(beta), restart_starts(beta, 0, range(32))
        z, ma, stop, _ = _lm_chunk(resid, z0, reject)
        z_old, ma_old, stop_old, _ = reference_chunk(resid, z0, reject, stall=False)
        won = stop_old == "rejected"  # the rows that could be accepted
        assert won.any()
        assert np.array_equal(z[won], z_old[won])
        assert np.array_equal(ma[won], ma_old[won])
        assert stop_names(stop[won]) == list(stop_old[won])

    def test_no_stall_below_stall_guard(self):
        # a nonzero minimum with max-abs residual 2e-7, below STALL_ABOVE:
        # rows 1 and 2 take steps there that lower the cost by at most FTOL
        # of it, yet they run on to no_descent, not stalling
        resid = lambda z: np.concatenate([z - 1, 1e-7 * (1 + z**2)], axis=1)
        z0 = np.array([[0.3 + 0.2j], [2 - 1j], [-0.5j]])
        assert assert_matches_reference(resid, z0, accept_any) == ["no_descent"] * 3

    @pytest.mark.parametrize(
        "singular",
        [
            lambda jtj, lam: ~jtj.any(axis=(1, 2)),
            lambda jtj, lam: lam < 5e6,
            lambda jtj, lam: lam > 1e10,
        ],
        ids=["flat-row", "light-damping", "heavy-damping"],
    )
    def test_singular_levels(self, monkeypatch, singular):
        # declare some damped systems singular: their NaN steps are ordinary
        # misses, raising the damping up to its overflow check
        solve = augment._damped_steps

        def solve_or_fail(jtj, lam, grad):
            steps = solve(jtj, lam, grad)
            steps[singular(jtj, lam)] = np.nan
            return steps

        monkeypatch.setattr(augment, "_damped_steps", solve_or_fail)
        # row 0 sits where this residual is constant, so its J^H J is zero
        resid = lambda z: np.where(z.real[:, :1] > 10, 1.0 + 0j, z**2 - 1)
        z0 = np.array([[100, 100], [0.3 + 0.2j, -0.5j], [2, -1.5 + 1j]])
        assert_matches_reference(resid, z0, accept_any)
        z0 = restart_starts(OVERFLOW_WORD, 0, (10, 13))
        assert_matches_reference(_sign_residual(OVERFLOW_WORD), z0, search_accept(OVERFLOW_WORD, 0, (10, 13)))

    def test_one_fold_per_step(self):
        # criterion 11's word, restarts 0-63 of seed 0 in one chunk: every row
        # stalls above STALL_ABOVE, so none is accepted, and the
        # chunk folds exactly as often as its longest row does alone
        resid, z0 = _sign_residual(C11_WORD), restart_starts(C11_WORD, 0, range(64))

        def folds(z0):
            calls = []
            _, ma, stop, _ = _lm_chunk(lambda z: calls.append(len(z)) or resid(z), z0, reject)
            assert stop_names(stop) == ["stalled"] * len(z0) and (ma >= STALL_ABOVE).all()
            return len(calls)

        alone = [folds(z0[k : k + 1]) for k in range(64)]
        assert folds(z0) == max(alone) < sum(alone)


def lead_then(*lead, rest):
    """A chunk schedule for _chunks: the sizes in lead, then rest at a time, cut to the budget."""
    def chunks(restarts):
        sizes = []
        for size in itertools.chain(lead, itertools.repeat(rest)):
            if restarts <= 0:
                return sizes
            sizes.append(min(size, restarts))
            restarts -= size
    return chunks


# each chunk schedule as the monkeypatch edits that set it; no edit is _chunks's own rule
SCHEDULES = {
    "1,64,64": [],
    "1,8,64": [("_chunks", lead_then(1, 8, rest=64))],
    "1,1,1": [("CHUNK", 1)],
    "8,64": [("_chunks", lead_then(8, rest=64))],
}
# searches whose outcome the chunk schedule must leave byte for byte: criterion
# 11's evidence, criterion 10's word at the seeds of 0-39 where restart 0 is
# not the winner (restart 2 at seed 0, restart 1 at the others), a search with
# every stop reason of OVERFLOW_WORD, and a certify search
SCHEDULE_FREE = {
    "c11": (C11_WORD, 64, 0),
    **{f"c10-seed{seed}": (C10_WORD, 256, seed) for seed in (0, 6, 28, 36)},
    "overflow": (OVERFLOW_WORD, 16, 0),
    "T(3,4)": (torus_braid(3, 4), 256, 0),
}


@functools.cache
def expected_search(name):
    """The JSON of a SCHEDULE_FREE search under _chunks's own rule."""
    beta, restarts, seed = SCHEDULE_FREE[name]
    return jsonio.dumps(solve_full_rank(beta, SolveOptions(restarts=restarts, seed=seed)).to_obj())


class TestChunkSchedule:
    """The chunk sizes are a cost choice: they never change a search's outcome."""

    @pytest.mark.parametrize(
        "restarts, sizes",
        [(0, []), (1, [1]), (2, [1, 1]), (64, [1, 63]), (65, [1, 64]), (66, [1, 64, 1]), (130, [1, 64, 64, 1])],
    )
    def test_restart_0_alone_then_full_chunks(self, restarts, sizes):
        assert CHUNK == 64
        assert list(augment._chunks(restarts)) == sizes

    @pytest.mark.parametrize("schedule", list(SCHEDULES))
    @pytest.mark.parametrize("name", list(SCHEDULE_FREE))
    def test_outcome_is_schedule_free(self, monkeypatch, schedule, name):
        want = expected_search(name)
        for attr, value in SCHEDULES[schedule]:
            monkeypatch.setattr(augment, attr, value)
        beta, restarts, seed = SCHEDULE_FREE[name]
        assert jsonio.dumps(solve_full_rank(beta, SolveOptions(restarts=restarts, seed=seed)).to_obj()) == want

    @pytest.mark.parametrize("seed, winner", [(0, 2), (6, 1), (28, 1), (36, 1)])
    def test_c10_winner_ends_where_it_ends_alone(self, seed, winner):
        # the certificate is the one the lowest restart accepted when run
        # alone gets, mu included; every restart before it runs alone to a miss
        resid = _sign_residual(C10_WORD)
        z0 = restart_starts(C10_WORD, seed, range(winner + 1))
        alone = [_lm_chunk(resid, z0[t : t + 1], search_accept(C10_WORD, seed, [t], 256)) for t in range(winner + 1)]
        assert [won is not None for *_, won in alone] == [False] * winner + [True]
        assert alone[winner][3].to_obj() == jsonio.loads(expected_search(f"c10-seed{seed}"))

    def test_cut_off_rows_enter_no_fold(self, monkeypatch):
        # seed 0 on criterion 10's word with restarts 0-7 in one chunk.  Every
        # point the chunk folds is one that exactly one restart folds when run
        # alone, so the folds show how far each row ran.  Restarts 4 and 7 are
        # accepted in one step, which cuts off 5 and 6; restart 2 is accepted
        # later and cuts off 3; from then on only restarts 0 and 1 fold
        want, resid = expected_search("c10-seed0"), _sign_residual(C10_WORD)
        owner, alone = {}, []  # fold point -> the restart folding it alone; each restart's point count
        for k, z0 in enumerate(restart_starts(C10_WORD, 0, range(8))):
            points = []
            _lm_chunk(lambda z: points.extend(map(bytes, z)) or resid(z), z0[None], reject)
            assert not owner.keys() & points
            owner.update(dict.fromkeys(points, k))
            alone.append(len(points))
        folds = []  # the restart of each point, fold by fold

        def counted(z):
            folds.append([owner[bytes(point)] for point in z])
            return resid(z)

        monkeypatch.setattr(augment, "_sign_residual", lambda beta: counted)
        monkeypatch.setattr(augment, "_chunks", lead_then(8, rest=64))
        out = solve_full_rank(C10_WORD, SolveOptions(restarts=256, seed=0))
        assert jsonio.dumps(out.to_obj()) == want
        count = collections.Counter(k for rows in folds for k in rows)
        last = {k: max(i for i, rows in enumerate(folds) if k in rows) for k in range(8)}
        # the rows that fold fewer points than alone are the cut-off ones
        assert [k for k in range(8) if count[k] < alone[k]] == [3, 5, 6]
        assert [k for k in range(8) if count[k] == alone[k]] == [0, 1, 2, 4, 7]
        # 5 and 6 are cut off first, right after 4 and 7 end; 3 after 2 ends
        assert last[4] == last[7] < last[5] == last[6] < last[2] < last[3]
        later = folds[last[3] + 1 :]
        assert later and {k for rows in later for k in rows} == {0, 1}
        # before the final cut, restarts 2-7 folded points that restarts 0 and 1 never do
        assert {k for rows in folds[: last[3] + 1] for k in rows} == set(range(8))


def reference_letter_step(x, e, sub_mul, last=False):
    """The copy-and-swap letter step: rows s, t and columns n+s, n+t are moved, not relabelled."""
    n = x.shape[0] // 2
    s, t = abs(e) - 1, abs(e)
    if e < 0:
        s, t = t, s
    v_ts, v_st = x[t, n + s, ...].copy(), x[s, n + t, ...].copy()
    if last:
        rows, cols = slice(0, n), slice(n, 2 * n)
    else:
        rows = cols = slice(None)
        x[t, n + s], x[s, n + t] = x[t, n + t], x[s, n + s]
    xs, xt = x[s, rows], x[t, rows]
    row = sub_mul(xt, v_ts, xs)
    xt[...] = xs
    xs[...] = row
    xs, xt = x[cols, n + s], x[cols, n + t]
    col = sub_mul(xt, xs, v_st)
    xt[...] = xs
    xs[...] = col
    if not last:
        x[s, n + t], x[t, n + s] = -v_ts, -v_st


def reference_fold(x, letters, sub_mul):
    for k, e in enumerate(letters):
        reference_letter_step(x, e, sub_mul, last=k == len(letters) - 1)
    n = x.shape[0] // 2
    return x[:n, :n], x[n:, n:]


def reference_eval(beta, values):
    """eval_phi_matrices on the copy-and-swap fold."""
    n, k = beta.n, values.ndim - 2
    x = np.zeros((2 * n, 2 * n) + values.shape[:k], dtype=complex)
    x[:n, n:] = values.transpose(k, k + 1, *range(k))
    for i in range(n):
        x[i, i] = x[n + i, n + i] = 1
        x[i, n + i] = 0
    blocks = reference_fold(x, beta.letters, lambda y, a, b: y - a * b)
    return tuple(np.ascontiguousarray(m.transpose(*range(2, k + 2), 0, 1)) for m in blocks)


def reference_phi(beta):
    """phi_matrices on the copy-and-swap fold, as entry grids."""
    n = beta.n
    x = np.full((2 * n, 2 * n), NCPoly.zero(n), dtype=object)
    for i in range(n):
        x[i, i] = x[n + i, n + i] = NCPoly.one(n)
        for j in range(n):
            if i != j:
                x[i, n + j] = NCPoly.gen(n, i + 1, j + 1)
    budget = term_budget()
    fused = np.frompyfunc(lambda y, a, b: y.sub_product(a, b, budget), 3, 1)
    return tuple(tuple(tuple(row) for row in m) for m in reference_fold(x, beta.letters, fused))


def term_lists(entries):
    """Each entry's terms in insertion order, which equality of polynomials ignores."""
    return [[list(x.terms.items()) for x in row] for row in entries]


def assert_bitwise_equal(got, want):
    assert got.shape == want.shape and got.flags.c_contiguous
    assert np.array_equal(np.isfinite(got), np.isfinite(want))
    assert np.array_equal(got, want, equal_nan=True)
    assert got.tobytes() == want.tobytes()  # signed zeros and NaN payloads too


class TestFoldOracle:
    """The relabelling fold against the copy-and-swap fold: equal bits, equal entries."""

    @pytest.mark.parametrize(
        "beta",
        [
            C11_WORD,
            BraidWord(4, (1, -2, 3, -1, -2, 2, -3, 1, -1)),
            BraidWord(2, (1,)),
            BraidWord(3, (-2,)),
            BraidWord(3, ()),
            BraidWord(1, ()),
            satellite_braid(satellite_braid(torus_braid(4, 5), torus_braid(2, 5)), torus_braid(2, 5)),
        ],
        ids=["c11", "negative-letters", "one-letter", "one-negative-letter", "empty", "B1", "B16-265"],
    )
    @pytest.mark.parametrize("batch", [1, 13, 715])
    def test_numeric_fold(self, beta, batch):
        rng = np.random.default_rng(batch)
        shape = (batch, beta.n, beta.n)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        values[batch // 2] *= 1e160  # a row whose products overflow
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = eval_phi_matrices(beta, values), reference_eval(beta, values)
        if len(beta.letters) > 1:
            assert not np.isfinite(want[0][batch // 2]).all()
        for m_got, m_want in zip(got, want):
            assert_bitwise_equal(m_got, m_want)

    def test_unbatched_numeric_fold(self):
        values = values_to_array(random_assignment(4, 3).values, 4)
        for m_got, m_want in zip(eval_phi_matrices(C11_WORD, values), reference_eval(C11_WORD, values)):
            assert_bitwise_equal(m_got, m_want)

    @pytest.mark.parametrize(
        "beta",
        # criterion 06's words, some of their cables, and the benchmark's phi_left/phi_right pairs
        [BraidWord.from_text(k, text) for k in (1, 2, 3) for text, min_k in
         (("", 1), ("1", 2), ("1 1 1", 2), ("1 2", 3), ("1 -2", 3)) if k >= min_k]
        + [cable(BraidWord.from_text(3, text), p) for text in ("1 2", "1 -2") for p in (2, 3)]
        + [cable(BraidWord(2, (1, 1, 1)), 2), cable(BraidWord(2, (1,) * 4), 2)]
        + [cable(torus_braid(3, 4), 2), torus_braid(3, 10), torus_braid(4, 9)],
        ids=lambda b: f"B{b.n}:" + ",".join(map(str, b.letters)),
    )
    def test_symbolic_fold(self, beta):
        want = reference_phi(beta)
        # the whole array's fold, then the top part's and the right part's
        for m, entries in zip(phi_matrices(beta) + (phi_left(beta), phi_right(beta)), want + want):
            assert m.entries == entries
            assert term_lists(m.entries) == term_lists(entries)

    @given(braid_words(min_n=2, max_n=4, max_len=6))
    @example(BraidWord(1, ()))
    @example(BraidWord(2, ()))
    @example(BraidWord(2, (-1,)))
    @example(BraidWord(3, (2,)))
    def test_one_sided_fold_matches_both_sided(self, beta):
        left, right = phi_matrices(beta)
        for got, want in ((phi_left(beta), left), (phi_right(beta), right)):
            assert got == want
            assert term_lists(got.entries) == term_lists(want.entries)

    def test_one_side_skips_the_other_sides_work(self, monkeypatch):
        # one side costs 15168 products where both cost 26014; a regression to
        # the two-sided fold would cost one side as much as both
        beta = cable(torus_braid(3, 4), 2)
        products = [0]
        sub_product = SparsePoly.sub_product

        def counted(y, a, b, budget=None):
            products[0] += len(a.terms) * len(b.terms)
            return sub_product(y, a, b, budget)

        monkeypatch.setattr(SparsePoly, "sub_product", counted)
        work = {}
        for fold in (phi_matrices, phi_left, phi_right):
            products[0] = 0
            fold(beta)
            work[fold.__name__] = products[0]
        assert work["phi_matrices"] > 0
        assert work["phi_left"] <= 0.6 * work["phi_matrices"]
        assert work["phi_right"] <= 0.6 * work["phi_matrices"]


class TestCertificateSerialization:
    def test_round_trip(self, tmp_path):
        cert = solve_full_rank(TREFOIL, SolveOptions(seed=0))
        path = tmp_path / "cert.json"
        cert.save(str(path))
        loaded = Certificate.load(str(path))
        assert jsonio.dumps(loaded.to_obj()) == jsonio.dumps(cert.to_obj())
        assert loaded.assignment.value(1, 2) == cert.assignment.value(1, 2)
        loaded.save(str(tmp_path / "again.json"))
        assert (tmp_path / "again.json").read_text() == path.read_text()

    def test_schema_fields(self):
        cert = solve_full_rank(TREFOIL, SolveOptions(seed=0))
        obj = cert.to_obj()
        assert list(obj) == [
            "braid",
            "lambda",
            "mu",
            "generators",
            "residual_L",
            "residual_R",
            "ideal_residual",
            "rank",
            "seed",
            "restarts",
            "tol",
        ]
        assert obj["braid"] == {"n": 2, "word": [1, 1, 1]}
        assert all(set(g) == {"i", "j", "re", "im"} for g in obj["generators"])
        assert obj["tol"] == ACCEPT_TOL
        assert construct_satellite_aug(cert, cert).to_obj()["tol"] == ACCEPT_TOL


class TestSignVector:
    def test_even_cycle_alternates(self):
        g = sign_vector(perm(BraidWord(2, (1,))), 2)
        assert g == {1: 1, 2: -1}

    def test_odd_cycle_repeats_first_sign(self):
        g = sign_vector(perm(BraidWord(3, (1, 2))), 3)
        # cycle is 1 -> 2 -> 3; odd length keeps the first two signs equal
        assert g == {1: 1, 2: 1, 3: -1}

    def test_single_strand(self):
        g = sign_vector(perm(BraidWord(1, ())), 1)
        assert g == {1: 1}

    def test_non_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            sign_vector(perm(BraidWord(2, ())), 2)


class TestConstruction:
    def setup_method(self):
        self.tre = solve_full_rank(TREFOIL, SolveOptions(seed=0))
        self.five = solve_full_rank(BraidWord(2, (1,) * 5), SolveOptions(seed=0))

    def test_trefoil_pair(self):
        cert = construct_satellite_aug(self.tre, self.tre)
        assert cert.braid == satellite_braid(TREFOIL, TREFOIL)
        assert cert.accepted
        assert max(cert.residual_L, cert.residual_R) <= 1e-9
        assert cert.rank == 4
        assert cert.restarts == 0  # no searching

    def test_iterated_torus_2235(self):
        cert = construct_satellite_aug(self.tre, self.five)
        from augrank.braids import iterated_torus_braid

        assert cert.braid == iterated_torus_braid((2, 2), (3, 5))
        assert cert.rank == 4
        assert cert.accepted

    def test_even_writhe_companion_keeps_pattern_values(self):
        t34 = solve_full_rank(torus_braid(3, 4), SolveOptions(seed=0))
        assert writhe(t34.braid) % 2 == 0
        cert = construct_satellite_aug(t34, self.tre)
        assert cert.accepted
        # same-block entries are exactly the unsigned pattern values
        p = 2
        for (i, j), v in cert.assignment.values.items():
            qi, ri = divmod(i - 1, p)
            qj, rj = divmod(j - 1, p)
            if qi == qj:
                assert v == self.tre.assignment.value(ri + 1, rj + 1)

    def test_odd_pattern_strands(self):
        t35 = solve_full_rank(torus_braid(3, 5), SolveOptions(seed=0))
        cert = construct_satellite_aug(self.tre, t35)
        assert cert.accepted
        assert cert.rank == 6

    def test_rejects_unaccepted_input(self):
        bad = Certificate(
            braid=TREFOIL,
            assignment=trefoil_assignment(x=2.0),
            residual_L=1.0,
            residual_R=1.0,
            ideal_residual=1.0,
            rank=1,
            seed=0,
            restarts=0,
            tol=ACCEPT_TOL,
        )
        with pytest.raises(ValueError, match="not accepted"):
            construct_satellite_aug(bad, self.tre)

    def test_wrong_images_fail_verification(self, monkeypatch):
        # a splitting map that sends every generator to 0: the satellite's
        # own measurement refuses the values it builds
        monkeypatch.setattr(augment, "split_gen", lambda i, j, p: None)
        with pytest.raises(ConstructionError, match=r"failed verification: residuals \(1\.000e\+00, 1\.000e\+00"):
            construct_satellite_aug(self.tre, self.tre)


def test_delta_sign_bookkeeping():
    """Twisting every generator by the sign vector multiplies each monomial of
    a left-matrix entry by sign(head index) * sign(tail index) only: interior
    chain indices appear twice, so their signs square away.  Checked
    symbolically, monomial by monomial."""
    for p, word in [(2, (1,)), (2, (1, 1, 1)), (3, (1, 2)), (3, (2, 1, 1)), (3, (1, 2, 2, 1))]:
        gamma = BraidWord(p, word)
        if len(perm(gamma).cycles()) != 1:
            continue
        g = sign_vector(perm(gamma), p)
        m = phi_left(gamma)
        pm = perm(gamma)
        for i in range(1, p + 1):
            for j in range(1, p + 1):
                for mon in m.at(i, j).terms:
                    twist = 1
                    for (s, t) in mon:
                        twist *= g[s] * g[t]
                    assert twist == g[pm(i)] * g[j]


class TestBlockStructure:
    @pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (2, 3)])
    def test_blocks_pass(self, n, p):
        report = check_block_structure(n, p)
        assert report.ok, report.to_obj()

    def test_degenerate_p1(self):
        report = check_block_structure(3, 1)
        assert report.ok

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            check_block_structure(1, 2)


class TestNonexistenceSearch:
    def test_control_finds_certificate(self):
        report = nonexistence_search(TREFOIL, SolveOptions(restarts=16, seed=0))
        assert report.found
        assert isinstance(report, Certificate)

    def test_control_rank4_satellite_found(self):
        beta = satellite_braid(BraidWord(2, (1,) * 5), BraidWord(2, (1,)))
        report = nonexistence_search(beta, SolveOptions(restarts=64, seed=0))
        assert report.found
        assert report.rank == 4

    @pytest.mark.parametrize(
        "beta, label",
        [
            # Markov stabilizations of certified knots: bridge number below the strand count
            (BraidWord(3, (1, 1, 1, 2)), "evidence-only"),
            (BraidWord(3, (1, 1, 1, -2)), "evidence-only"),
            (BraidWord(3, (1,) * 5 + (2,)), "evidence-only"),
            (BraidWord(4, torus_braid(3, 4).letters + (3,)), "evidence-only"),
            # the figure-eight knot, bridge number 2, and its stabilization; their
            # restarts drift off to infinity, which the label does not yet tell apart
            (BraidWord(3, (1, -2, 1, -2)), None),
            (BraidWord(4, (1, -2, 1, -2, 3)), None),
        ],
        ids=["T(2,3)s2", "T(2,3)s2^-1", "T(2,5)s2", "T(3,4)s3", "fig8", "fig8s3"],
    )
    def test_known_negatives_are_never_found(self, beta, label):
        report = nonexistence_search(beta, SolveOptions(restarts=64, seed=0))
        assert not report.found
        assert report.best_residual >= 0.5
        if label is not None:
            assert report.label == label

    def test_blocked_satellite_reports_evidence(self):
        beta = satellite_braid(TREFOIL, BraidWord(2, (1,)))
        report = nonexistence_search(beta, SolveOptions(restarts=8, seed=0))
        assert not report.found
        assert report.best_residual > 1e-3
        obj = report.to_obj()
        assert obj["label"] == "evidence-only"
        assert obj["residual_summary"]["count"] == 8
