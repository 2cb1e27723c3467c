import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from augrank.action import phi_left, phi_right
from augrank.augment import (
    ACCEPT_TOL,
    Certificate,
    MuOneError,
    NotFound,
    SolveOptions,
    _damped_steps,
    _lm_chunk,
    _sign_residual,
    aug_rank,
    check_block_structure,
    construct_satellite_aug,
    eval_phi_matrices,
    full_rank_residual,
    gen_order,
    ideal_residual,
    matrix_a,
    matrix_delta,
    matrix_lambda,
    nonexistence_search,
    numerical_rank,
    sign_vector,
    solve_full_rank,
    values_to_array,
)
from augrank.braids import BraidWord, perm, satellite_braid, torus_braid, writhe
from augrank.freealg import Assignment

from strategies import braid_words

TREFOIL = BraidWord(2, (1, 1, 1))


def trefoil_assignment(lam=1.0, mu=-1.0, x=1.0, y=1.0):
    return Assignment(2, {(1, 2): x, (2, 1): y}, lam, mu)


def random_assignment(n, seed, lam=1.0, mu=2.0):
    rng = np.random.default_rng(seed)
    vals = {g: complex(rng.standard_normal(), rng.standard_normal()) for g in gen_order(n)}
    return Assignment(n, vals, lam, mu)


class TestMatrices:
    def test_matrix_a_rank_one_ambient(self):
        assert matrix_a(1) == [["1 - mu"]]

    def test_matrix_a_symbolic(self):
        assert matrix_a(2) == [["1 - mu", "a12"], ["-mu*a21", "1 - mu"]]

    def test_matrix_a_trefoil_values(self):
        m = matrix_a(2, trefoil_assignment())
        assert np.allclose(m, [[2, 1], [1, 2]])
        assert numerical_rank(m) == 2

    def test_matrix_lambda(self):
        assert np.allclose(matrix_lambda(BraidWord(2, ()), 3.0, 2.0), np.diag([3.0, 1.0]))
        assert np.allclose(matrix_lambda(TREFOIL, 1.0, 2.0), np.diag([8.0, 1.0]))
        lam = matrix_lambda(TREFOIL, 2.0, 3.0)
        assert np.allclose(lam @ np.linalg.inv(lam), np.eye(2))
        with pytest.raises(ValueError):
            matrix_lambda(TREFOIL, 0.0, 1.0)

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

    def test_unknot_certificate(self):
        cert = solve_full_rank(BraidWord(1, ()), SolveOptions(seed=0))
        assert isinstance(cert, Certificate)
        assert cert.rank == 1
        assert cert.residual_L == cert.residual_R == 0.0

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
        assert summary["stops"]["non_finite"] >= 1
        assert sum(summary["stops"].values()) == 4
        assert np.isfinite(out.best_residual)
        assert out.best_residual == summary["min"]
        assert np.isfinite(summary["max"])

    def test_no_finite_restart_writes_null_best(self):
        out = solve_full_rank(satellite_braid(TREFOIL, BraidWord(2, (1,))), SolveOptions(restarts=0))
        assert isinstance(out, NotFound)
        assert out.residual_summary["count"] == 0
        assert not any(out.residual_summary["stops"].values())
        assert out.to_obj()["best_residual"] is None
        assert nonexistence_search(TREFOIL, SolveOptions(restarts=0)).to_obj()["best_residual"] is None

    def test_chunk_independence(self):
        # criterion 10's braid; with seed 0 its first accepted restart is not restart 0
        beta = satellite_braid(BraidWord(2, (1,) * 5), BraidWord(2, (1,)))
        m = beta.n * (beta.n - 1)
        rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(0).spawn(8)]
        x0 = np.array([rng.standard_normal(2 * m) for rng in rngs])
        z0 = x0[:, :m] + 1j * x0[:, m:]
        resid = _sign_residual(beta)
        _, chunk_ma, chunk_stop = _lm_chunk(resid, z0, 120, -np.inf)
        alone = [_lm_chunk(resid, z0[k : k + 1], 120, -np.inf) for k in range(8)]
        assert np.allclose(chunk_ma, [ma[0] for _, ma, _ in alone], rtol=1e-12, atol=0)
        assert list(chunk_stop) == [stop[0] for _, _, stop in alone]
        accepted = [k for k, (_, ma, _) in enumerate(alone) if ma[0] <= ACCEPT_TOL]
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
        steps, ok = _damped_steps(jtj, np.ones((3, 4)), np.array([0.1, 0.0, 0.1]), grad)
        assert list(ok) == [True, False, True]
        for k in (0, 2):
            want = np.linalg.solve(jtj[k] + 0.1 * np.eye(4), -grad[k])
            assert np.allclose(steps[k], want, rtol=1e-12, atol=0)

    def test_determinism(self):
        c1 = solve_full_rank(torus_braid(2, 5), SolveOptions(seed=7))
        c2 = solve_full_rank(torus_braid(2, 5), SolveOptions(seed=7))
        assert c1.to_json() == c2.to_json()

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


class TestCertificateSerialization:
    def test_round_trip(self, tmp_path):
        cert = solve_full_rank(TREFOIL, SolveOptions(seed=0))
        path = tmp_path / "cert.json"
        cert.save(str(path))
        loaded = Certificate.load(str(path))
        assert loaded.to_json() == cert.to_json()
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
        assert report.certificate is not None
        assert report.to_obj()["label"] == "evidence-only"

    def test_control_rank4_satellite_found(self):
        beta = satellite_braid(BraidWord(2, (1,) * 5), BraidWord(2, (1,)))
        report = nonexistence_search(beta, SolveOptions(restarts=64, seed=0))
        assert report.found
        assert report.certificate.rank == 4

    def test_blocked_satellite_reports_evidence(self):
        beta = satellite_braid(TREFOIL, BraidWord(2, (1,)))
        report = nonexistence_search(beta, SolveOptions(restarts=8, seed=0))
        assert not report.found
        assert report.best_residual > 1e-3
        obj = report.to_obj()
        assert obj["label"] == "evidence-only"
        assert obj["residual_summary"]["count"] == 8
