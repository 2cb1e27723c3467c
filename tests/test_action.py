import math

import numpy as np
import pytest
from hypothesis import assume, example, given
import hypothesis.strategies as st

from augrank.action import (
    PhiMatrix,
    StarDecompositionError,
    cabled_generator_closed_form,
    chain_compose,
    fold_block,
    kappa_closed_form,
    mat_mul,
    phi,
    phi_left,
    phi_left_direct,
    phi_letter,
    phi_matrices,
    phi_right,
    phi_right_direct,
    star_decompose,
    sum_asc,
    sum_crossing,
    sum_desc,
    tau_closed_form,
)
from augrank.braids import BraidWord, cable, include_bar, perm, tau_word, torus_braid
from augrank.checks import (
    check_braid_relations,
    check_chain_rule,
    check_monomial_structure,
    check_tau_forms,
    check_transpose,
)
from augrank.freealg import NCPoly, TermBudgetError, gen_order

from strategies import braid_word_pairs, braid_words, nc_polys


def a(n, i, j):
    return NCPoly.gen(n, i, j)


def kappa_word(m: int, l: int, p: int, n: int) -> BraidWord:
    """The product of descending tau words of width p starting at m+l-1 down to m."""
    if l < 1 or p < 1 or m < 1 or m + l + p - 2 > n - 1:
        raise ValueError(f"kappa word (m={m}, l={l}, p={p}) does not fit in B_{n}")
    letters: list[int] = []
    for j in range(m + l - 1, m - 1, -1):
        letters.extend(tau_word(j, p, n).letters)
    return BraidWord(n, tuple(letters))


class TestLetterAction:
    def test_adjacent_pair_flips_sign(self):
        assert phi_letter(1, a(2, 1, 2)) == -a(2, 2, 1)
        assert phi_letter(1, a(2, 2, 1)) == -a(2, 1, 2)

    def test_row_case_expands(self):
        assert phi_letter(1, a(3, 1, 3)) == a(3, 2, 3) - a(3, 2, 1) * a(3, 1, 3)

    def test_column_case_expands(self):
        assert phi_letter(1, a(3, 3, 1)) == a(3, 3, 2) - a(3, 3, 1) * a(3, 1, 2)

    def test_untouched_indices_fixed(self):
        assert phi_letter(1, a(4, 3, 4)) == a(4, 3, 4)

    def test_out_of_range_letter(self):
        with pytest.raises(ValueError):
            phi_letter(2, a(2, 1, 2))

    @given(nc_polys(n=3), st.sampled_from([1, 2, -1, -2]))
    def test_letter_round_trip(self, x, e):
        assert phi_letter(-e, phi_letter(e, x)) == x

    @given(nc_polys(n=3), st.sampled_from([1, 2]))
    def test_letter_is_multiplicative(self, x, e):
        y = a(3, 1, 3) - 2 * a(3, 3, 2)
        assert phi_letter(e, x * y) == phi_letter(e, x) * phi_letter(e, y)


class TestWordAction:
    def test_identity_word(self):
        x = a(2, 1, 2) * a(2, 2, 1)
        assert phi(BraidWord(2, ()), x) == x

    @given(nc_polys(n=3), braid_words(min_n=3, max_n=3, max_len=5))
    def test_group_action_inverse(self, x, b):
        assert phi(b.inverse(), phi(b, x)) == x

    def test_sigma1_squared_fixes_generators_of_two_strands(self):
        b = BraidWord(2, (1, 1))
        assert phi(b, a(2, 2, 1)) == a(2, 2, 1)
        assert phi(b, a(2, 1, 2)) == a(2, 1, 2)

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            phi(BraidWord(3, (1,)), a(2, 1, 2))
        # a braid acts on the extra strand only once included in B_{n+1}
        with pytest.raises(ValueError, match="cannot act on ambient 3"):
            phi(BraidWord(2, (1,)), a(3, 1, 3))

    @given(nc_polys(n=3), braid_words(min_n=3, max_n=3, max_len=5))
    def test_commutes_with_conjugation(self, x, b):
        assert phi(b, x.conjugate()) == phi(b, x).conjugate()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_braid_relations_on_all_generators(self, n):
        assert check_braid_relations(n).ok


class TestStarAction:
    # the extra strand of B_2 is strand 3 of B_3, with sigma_1 included
    def test_star_basis_examples(self):
        s1 = include_bar(BraidWord(2, (1,)), 3)
        assert phi(s1, a(3, 1, 3)) == a(3, 2, 3) - a(3, 2, 1) * a(3, 1, 3)
        assert phi(s1, a(3, 2, 3)) == a(3, 1, 3)

    def test_identity(self):
        x = a(3, 1, 3)
        assert phi(BraidWord(3, ()), x) == x

    def test_star_decompose_validates(self):
        with pytest.raises(StarDecompositionError):
            star_decompose(NCPoly.one(3), "L")
        with pytest.raises(StarDecompositionError):
            star_decompose(a(3, 1, 2), "L")  # no star slot at the end
        bad = a(3, 1, 3) * a(3, 3, 2)  # star not final
        with pytest.raises(StarDecompositionError):
            star_decompose(bad, "L")
        with pytest.raises(StarDecompositionError):
            star_decompose(a(3, 1, 3), "R")
        with pytest.raises(StarDecompositionError):
            star_decompose(NCPoly.one(3), "R")
        with pytest.raises(StarDecompositionError):
            star_decompose(a(3, 1, 2), "R")  # no star slot at the start
        bad = a(3, 3, 1) * a(3, 2, 3)  # second star inside
        with pytest.raises(StarDecompositionError):
            star_decompose(bad, "R")
        with pytest.raises(ValueError, match="side must be 'L' or 'R', got 'X'"):
            star_decompose(a(3, 1, 3), "X")

    def test_star_decompose_error_names_the_word(self):
        # a55,54 and a56,55 encode past the surrogate block; the message decodes them
        for x, side in ((a(56, 55, 54), "L"), (a(56, 56, 55) * a(56, 55, 56), "R")):
            with pytest.raises(StarDecompositionError) as info:
                star_decompose(x, side)
            text = str(info.value)
            assert ("a55,54" if side == "L" else "a56,55*a55,56") in text
            assert text.encode("utf-8").decode("utf-8") == text

    def test_star_decompose_reads_rows(self):
        x = a(3, 2, 1) * a(3, 1, 3) - 2 * a(3, 2, 3)
        coeffs = star_decompose(x, "L")
        assert coeffs[1] == a(2, 2, 1)
        assert coeffs[2] == NCPoly.const(2, -2)


EXPECTED_L_S1 = [["-a21", "1"], ["1", "0"]]
EXPECTED_L_S1_CUBED = [
    ["-2*a21 + a21*a12*a21", "1 - a21*a12"],
    ["1 - a12*a21", "a12"],
]
EXPECTED_L_S1_SQUARED = [["1 - a12*a21", "a12"], ["-a21", "1"]]


class TestMatrices:
    def test_identity_matrix(self):
        assert phi_left(BraidWord(3, ())) == PhiMatrix.identity(3, "L")
        assert phi_right(BraidWord(3, ())) == PhiMatrix.identity(3, "R")

    def test_entry_grid_is_validated(self):
        one = NCPoly.one(2)
        with pytest.raises(ValueError, match="side must be 'L' or 'R', got 'X'"):
            PhiMatrix(2, "X", ((one, one), (one, one)))
        with pytest.raises(ValueError, match="entry grid is not n x n"):
            PhiMatrix(2, "L", ((one, one), (one,)))
        with pytest.raises(ValueError, match="entry ambient does not match matrix size"):
            PhiMatrix(2, "L", ((one, one), (one, NCPoly.one(3))))

    def test_left_matrix_sigma1(self):
        assert phi_left(BraidWord(2, (1,))).render_entries() == EXPECTED_L_S1

    def test_left_matrix_trefoil(self):
        assert phi_left(BraidWord(2, (1, 1, 1))).render_entries() == EXPECTED_L_S1_CUBED

    @given(braid_words(max_n=4, max_len=5))
    def test_fold_matches_direct_extraction(self, b):
        assert phi_left(b) == phi_left_direct(b)
        assert phi_right(b) == phi_right_direct(b)

    @given(braid_words(max_n=4, max_len=6))
    def test_transpose_symmetry(self, b):
        assert phi_right(b) == phi_left(b).conj_transpose()

    def test_one_letter_matrices(self):
        s1, s1_inv = BraidWord(2, (1,)), BraidWord(2, (-1,))
        assert phi_left(s1).render_entries() == [["-a21", "1"], ["1", "0"]]
        assert phi_right(s1).render_entries() == [["-a12", "1"], ["1", "0"]]
        assert phi_left(s1_inv).render_entries() == [["0", "1"], ["1", "-a12"]]
        assert phi_right(s1_inv).render_entries() == [["0", "1"], ["1", "-a21"]]

    def test_monomial_structure(self):
        assert check_monomial_structure(3, count=40, seed=2).ok

    @pytest.mark.parametrize("check", [check_chain_rule, check_transpose, check_monomial_structure])
    @pytest.mark.parametrize("n, count, field", [(3, 0, "count"), (1, 5, "n")])
    def test_randomized_check_needs_a_sample(self, check, n, count, field):
        # no word drawn, or no generator to draw from: the check would check nothing
        with pytest.raises(ValueError, match=f"^{field} must be >= "):
            check(n, count=count)

    def test_head_index_matches_perm_convention(self):
        # pins the left-to-right perm convention against the action bookkeeping
        b = BraidWord(3, (1, 2))
        pm = perm(b)
        m = phi_left(b)
        for i in range(1, 4):
            for j in range(1, 4):
                for mon in m.at(i, j).terms:
                    if mon:
                        assert mon[0][0] == pm(i)


class TestCheckFailures:
    """Each exact suite, made to fail, names the sample or the entry that failed."""

    def test_chain_rule(self, monkeypatch):
        # a composition tagged with the other side never equals the product's matrix
        other = {"L": "R", "R": "L"}
        wrong = lambda m1, m2, b1: PhiMatrix.identity(m1.n, other[m1.side])
        monkeypatch.setattr("augrank.checks.chain_compose", wrong)
        words = [("2 -2 1", "2 2 1 2"), ("-1 -1", "-1 -2")]
        diffs = check_chain_rule(3, count=2, seed=0).diffs
        assert diffs == [
            {"pair": idx, "side": side, "beta1": b1, "beta2": b2}
            for idx, (b1, b2) in enumerate(words)
            for side in "LR"
        ]
        assert list(diffs[0]) == ["pair", "side", "beta1", "beta2"]

    def test_transpose(self, monkeypatch):
        # a right matrix tagged "L" never equals the conjugate transpose of the left
        monkeypatch.setattr("augrank.checks.phi_matrices", lambda b: (PhiMatrix.identity(b.n, "L"),) * 2)
        diffs = check_transpose(3, count=2, seed=0).diffs
        assert diffs == [{"word": "2 2 -2 1 2 2", "index": 0}, {"word": "1 2 1 -1 -1 1", "index": 1}]
        assert list(diffs[0]) == ["word", "index"]

    def test_monomial_structure(self, monkeypatch):
        # a permutation onto no strand: every constant and every chain start is off
        monkeypatch.setattr("augrank.checks.perm", lambda b: lambda i: 0)
        diffs = check_monomial_structure(2, count=1, seed=0).diffs
        assert diffs == [
            {"word": "1 -1 1", "i": 1, "j": 1, "bad": "((2, 1),)"},
            {"word": "1 -1 1", "i": 1, "j": 2, "bad": "constant"},
            {"word": "1 -1 1", "i": 2, "j": 1, "bad": "constant"},
        ]
        assert list(diffs[0]) == ["word", "i", "j", "bad"]

    def test_braid_relations(self, monkeypatch):
        # an action by the first letter only: the two sides of each relation differ
        monkeypatch.setattr("augrank.checks.phi", lambda b, g: phi(BraidWord(b.n, b.letters[:1]), g))
        diffs = check_braid_relations(3).diffs
        assert len(diffs) == 6
        assert diffs[0] == {"relation": "adjacent 1", "generator": "a12"}
        assert list(diffs[0]) == ["relation", "generator"]


def exact_value(x: NCPoly, values) -> int:
    """x at integer generator values, multiplied out in Python integers."""
    return sum(c * math.prod(values[g] for g in mon) for mon, c in x.terms.items())


class TestFoldBlock:
    """fold_block over a third ring, the integers: it must commute with evaluation."""

    @pytest.mark.parametrize(
        "beta",
        [BraidWord(3, (1, -2, 1, 2, -1)), torus_braid(3, 4), cable(BraidWord(2, (1, -1, 1)), 2)],
        ids=["B3-mixed", "T(3,4)", "cable"],
    )
    def test_integer_ring_matches_free_algebra(self, beta):
        n = beta.n
        rng = np.random.default_rng(n)
        # object integers, never wrapped; the diagonal holds values the fold must ignore
        v = rng.integers(-3, 4, size=(n, n)).astype(object)
        values = {(i, j): v[i - 1, j - 1] for i, j in gen_order(n)}
        sub_mul = lambda y, a, b: np.subtract(y, a * b, out=y)
        fold = lambda part=np.s_[:]: fold_block(beta, v, 1, 0, sub_mul, part)
        want = [[[exact_value(x, values) for x in row] for row in m.entries] for m in phi_matrices(beta)]
        got = fold() + (fold(np.s_[:n])[0], fold(np.s_[:, n:])[1])
        for m, entries in zip(got, want + want):
            assert m.dtype == object and m.shape == (n, n) and m.flags.c_contiguous
            assert m.tolist() == entries
        assert any(abs(x) > 1 for row in want[0] for x in row)  # the values did multiply


class TestChainCompose:
    def test_identity_either_side(self):
        b = BraidWord(2, (1, 1))
        m = phi_left(b)
        ident = PhiMatrix.identity(2, "L")
        assert chain_compose(m, ident, b) == m
        assert chain_compose(ident, m, BraidWord(2, ())) == m

    def test_single_step(self):
        s1 = BraidWord(2, (1,))
        m = chain_compose(phi_left(s1), phi_left(s1), s1)
        assert m.render_entries() == EXPECTED_L_S1_SQUARED
        assert m == phi_left(BraidWord(2, (1, 1)))

    @given(braid_word_pairs(min_n=3, max_n=3, max_len=4))
    @example((BraidWord(3, (-2, -2, -2, 1)), BraidWord(3, (1, -2, -2, 1))))
    def test_matches_product_word(self, pair):
        b1, b2 = pair
        try:
            left = chain_compose(phi_left(b1), phi_left(b2), b1)
            right = chain_compose(phi_right(b1), phi_right(b2), b1)
        except TermBudgetError:
            # adversarial pairs can push the intermediate past the budget;
            # the guardrail firing is correct behavior, not a counterexample
            assume(False)
        assert left == phi_left(b1 * b2)
        assert right == phi_right(b1 * b2)

    def test_last_letter_builds_no_images(self):
        # act(P, a_13) after 7 letters has 3708 terms, so updating the images
        # on the last letter would build a 1.29M-term product; the matrices'
        # largest entry has 2796
        b1, b2 = BraidWord(3, (-2, -2, -2, 1)), BraidWord(3, (1, -2, -2, 1))
        assert phi_left(b1 * b2) == chain_compose(phi_left(b1), phi_left(b2), b1)
        assert phi_right(b1 * b2) == chain_compose(phi_right(b1), phi_right(b2), b1)

    def test_side_mismatch(self):
        with pytest.raises(ValueError):
            chain_compose(
                phi_left(BraidWord(2, (1,))), phi_right(BraidWord(2, (1,))), BraidWord(2, (1,))
            )
        m = phi_left(BraidWord(2, (1,)))
        with pytest.raises(ValueError, match="braid ambient does not match matrices"):
            chain_compose(m, m, BraidWord(3, (1,)))


def ref_mat_mul(a: PhiMatrix, b: PhiMatrix) -> PhiMatrix:
    """a . b entry by entry, summed with + and *."""
    zero = NCPoly.zero(a.n)
    rows = tuple(
        tuple(sum((x * y for x, y in zip(row, col)), zero) for col in zip(*b.entries))
        for row in a.entries
    )
    return PhiMatrix(a.n, a.side, rows)


def assert_same_product(a: PhiMatrix, b: PhiMatrix) -> None:
    got = mat_mul(a, b)
    assert got == ref_mat_mul(a, b)
    assert all(0 not in x.terms.values() for row in got.entries for x in row)


class TestMatMul:
    @given(braid_word_pairs(min_n=2, max_n=4, max_len=4))
    def test_matches_sum_of_products(self, pair):
        (l1, r1), (l2, r2) = (phi_matrices(b) for b in pair)
        assert_same_product(l1, l2)
        assert_same_product(r2, r1)

    def test_zero_and_unit_entries(self):
        one, zero = NCPoly.one(3), NCPoly.zero(3)
        x, y = a(3, 1, 2) * a(3, 2, 3) - 2, a(3, 3, 1) + 5
        m1 = PhiMatrix(3, "L", ((one, zero, x), (zero, zero, zero), (y, one, one)))
        m2 = PhiMatrix(3, "L", ((x, one, zero), (zero, y, one), (one, zero, y)))
        assert_same_product(m1, m2)
        assert mat_mul(m1, m2).at(1, 1) == x + x
        assert mat_mul(m1, m2).at(2, 3).is_zero()
        ident = PhiMatrix.identity(3, "L")
        assert mat_mul(ident, m2) == m2 and mat_mul(m1, ident) == m1

    def test_terms_cancel_then_reappear(self):
        # a12*a21 comes in, cancels to nothing, and comes back in one entry;
        # the second entry cancels for good
        g, one, zero = a(3, 1, 2), NCPoly.one(3), NCPoly.zero(3)
        h = a(3, 2, 1)
        m1 = PhiMatrix(3, "R", ((g, g, g), (one, one, zero), (zero,) * 3))
        m2 = PhiMatrix(3, "R", ((h, h, zero), (-h, -h, zero), (h, zero, zero)))
        assert_same_product(m1, m2)
        got = mat_mul(m1, m2)
        assert got.at(1, 1) == g * h and got.at(1, 2).is_zero()
        assert dict(got.at(2, 1).terms) == {}

    def test_mismatch(self):
        with pytest.raises(ValueError, match="matrix mismatch"):
            mat_mul(PhiMatrix.identity(2, "L"), PhiMatrix.identity(2, "R"))
        with pytest.raises(ValueError, match="matrix mismatch"):
            mat_mul(PhiMatrix.identity(2, "L"), PhiMatrix.identity(3, "L"))

    def test_respects_budget(self, monkeypatch):
        # entry (1,1) is 1 + a12*a21 + a13*a31: 3 monomials
        m1 = PhiMatrix(3, "L", ((NCPoly.one(3), a(3, 1, 2), a(3, 1, 3)),) * 3)
        m2 = PhiMatrix(3, "L", tuple((x,) * 3 for x in (NCPoly.one(3), a(3, 2, 1), a(3, 3, 1))))
        assert len(mat_mul(m1, m2).at(1, 1).terms) == 3
        monkeypatch.setenv("KCH_TERM_BUDGET", "2")
        with pytest.raises(TermBudgetError):
            mat_mul(m1, m2)


class TestClosedForms:
    def test_tau_inside_window(self):
        # m <= i < j < m+p shifts both indices up
        assert tau_closed_form(2, 3, 2, 4, 6) == a(6, 3, 5)

    def test_tau_straddling_window(self):
        # i < m <= j < m+p picks up the two-term correction
        assert tau_closed_form(2, 3, 1, 3, 6) == a(6, 1, 4) - a(6, 1, 2) * a(6, 2, 4)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_tau_matches_action(self, n):
        for m in range(1, n):
            for p in range(1, n - m + 1):
                w = tau_word(m, p, n)
                for amb in (n, n + 1):
                    for i in range(1, amb + 1):
                        for j in range(i + 1, amb + 1):
                            got = tau_closed_form(m, p, i, j, amb)
                            gen = a(amb, i, j)
                            want = phi(include_bar(w, amb), gen)
                            assert got == want, (n, m, p, i, j, amb)

    def test_tau_star_failure_names_the_entry(self, monkeypatch):
        # a wrong closed form on the extra strand shows as one diff naming
        # the band word, the entry and j = "star"
        def wrong(m, p, i, j, amb):
            x = tau_closed_form(m, p, i, j, amb)
            return x + a(amb, 1, 2) if (m, p, i, j, amb) == (1, 2, 2, 4, 4) else x

        monkeypatch.setattr("augrank.checks.tau_closed_form", wrong)
        diffs = check_tau_forms(3).diffs
        assert diffs == [
            {"m": 1, "p": 2, "i": 2, "j": "star", "lhs": "a12 + a34 - a31*a14", "rhs": "a34 - a31*a14"}
        ]
        assert list(diffs[0]) == ["m", "p", "i", "j", "lhs", "rhs"]

    def test_tau_rejects_bad_input(self):
        with pytest.raises(ValueError):
            tau_closed_form(1, 2, 2, 1, 3)  # i >= j
        with pytest.raises(ValueError):
            tau_closed_form(2, 3, 1, 2, 4)  # window does not fit
        for p in (0, -1):  # a band word of no width, as tau_word says
            with pytest.raises(ValueError, match=rf"\(m=1, l=1, p={p}\) does not fit in ambient 3"):
                tau_closed_form(1, p, 1, 2, 3)

    def test_kappa_single_factor_is_tau(self):
        for m, p, n in [(1, 2, 4), (2, 3, 6), (3, 1, 5)]:
            assert kappa_word(m, 1, p, n).letters == tau_word(m, p, n).letters

    def test_kappa_word_shape(self):
        # descending product of width-p ascending runs
        assert kappa_word(1, 2, 2, 4).letters == (2, 3, 1, 2)

    def test_kappa_word_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            kappa_word(2, 2, 2, 4)

    @pytest.mark.parametrize("n,p", [(4, 1), (5, 2), (7, 3)])
    def test_kappa_matches_action(self, n, p):
        for l in range(1, p + 1):
            for m in range(1, n - l - p + 2):
                w = kappa_word(m, l, p, n)
                for i in range(1, n + 1):
                    for j in range(i + 1, n + 2):
                        amb = max(j, n)  # j = n+1 is the extra strand
                        got = kappa_closed_form(m, l, p, i, j, amb)
                        gen = a(amb, i, j)
                        want = phi(include_bar(w, amb), gen)
                        assert got == want, (n, p, l, m, i, j)

    def test_cabled_form_block_cases(self):
        # both indices inside the moving block shift by p
        assert cabled_generator_closed_form(1, 2, 1, 2, 4) == a(4, 3, 4)
        # untouched indices stay put
        assert cabled_generator_closed_form(1, 2, 5, 6, 6) == a(6, 5, 6)

    def test_cabled_form_rejects_bad_input(self):
        # sigma_0 would start its window at strand -1
        with pytest.raises(ValueError, match=r"\(m=-1, l=2, p=2\) does not fit in ambient 4"):
            cabled_generator_closed_form(0, 2, 1, 2, 4)
        # the 2-cable of sigma_2 moves strands 3..6, which do not fit in 5
        with pytest.raises(ValueError, match="does not fit in ambient 5"):
            cabled_generator_closed_form(2, 2, 1, 2, 5)
        with pytest.raises(ValueError):
            cabled_generator_closed_form(1, 2, 2, 1, 4)  # i >= j

    def test_cabled_form_matches_action_smoke(self):
        k, p = 3, 2
        kp = k * p
        for n_gen in (1, 2):
            cab = cable(BraidWord(k, (n_gen,)), p)
            for i in range(1, kp + 1):
                for j in range(i + 1, kp + 2):
                    amb = max(j, kp)  # j = kp+1 is the extra strand
                    got = cabled_generator_closed_form(n_gen, p, i, j, amb)
                    gen = a(amb, i, j)
                    want = phi(include_bar(cab, amb), gen)
                    assert got == want

    @pytest.mark.parametrize("k,p", [(2, 2), (3, 2), (2, 3)])
    def test_kappa_word_equals_cabled_letter_as_automorphism(self, k, p):
        # the words differ but induce the same action on every generator
        kp = k * p
        for n_gen in range(1, k):
            cab = cable(BraidWord(k, (n_gen,)), p)
            kw = kappa_word((n_gen - 1) * p + 1, p, p, kp)
            assert cab.letters != kw.letters or p == 1
            for i in range(1, kp + 1):
                for j in range(1, kp + 1):
                    if i != j:
                        assert phi(cab, a(kp, i, j)) == phi(kw, a(kp, i, j))

    def test_sum_builders_small_window(self):
        # width-1 window: ascending sum is the two-term correction
        assert sum_asc(4, 1, 3, 2, 1) == a(4, 1, 3) - a(4, 1, 2) * a(4, 2, 3)
        assert sum_desc(4, 4, 1, 2, 1) == a(4, 4, 1) - a(4, 4, 2) * a(4, 2, 1)
        # crossing sum at the window point itself keeps only the empty subset
        assert sum_crossing(4, 3, 2, 2, 1) == -a(4, 3, 2)


class TestBudget:
    def test_matrix_computation_respects_budget(self, monkeypatch):
        # the (1,1) entry of the result has 4 monomials, so any correct
        # computation must exceed a budget of 3
        monkeypatch.setenv("KCH_TERM_BUDGET", "3")
        with pytest.raises(TermBudgetError):
            phi_left(BraidWord(3, (1, 2, 1, 2, 1, 2)))
