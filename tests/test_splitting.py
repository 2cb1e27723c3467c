import pytest
from hypothesis import given
import hypothesis.strategies as st

from augrank.action import phi
from augrank.braids import BraidWord, cable, include_bar, perm
from augrank import splitting
from augrank.freealg import NCPoly
from augrank.splitting import (
    TensorPoly,
    psi,
    psi_star,
    split_index,
    tensor_embed_left,
    verify_cable_matrix_split,
    verify_commutes,
    verify_sum_collapse,
)

from strategies import braid_words, nc_polys


def a(n, i, j):
    return NCPoly.gen(n, i, j)


def tensor_embed_right(x, k):
    """1 (x) x."""
    return TensorPoly(k, x.n, {((), mon): c for mon, c in x.terms.items()})


class TestIndexSplit:
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 60))
    def test_split_join_round_trip(self, k, p, i):
        i = (i - 1) % (k * p) + 1
        q, r = split_index(i, p)
        assert 1 <= q <= k and 1 <= r <= p
        assert (q - 1) * p + r == i


class TestPsiGenerators:
    def test_same_block(self):
        assert psi(a(4, 1, 2), 2, 2) == tensor_embed_right(a(2, 1, 2), 2)

    def test_opposite_moves_vanish(self):
        assert psi(a(4, 2, 3), 2, 2).is_zero()

    def test_same_direction_is_pure_tensor(self):
        expected = TensorPoly(2, 2, {((((1, 2),)), ((1, 2),)): 1})
        assert psi(a(4, 1, 4), 2, 2) == expected

    def test_same_offset(self):
        assert psi(a(4, 1, 3), 2, 2) == tensor_embed_left(a(2, 1, 2), 2)

    def test_rejects_non_generator(self):
        with pytest.raises(ValueError):
            psi(a(4, 1, 1), 2, 2)


class TestPsiMap:
    @given(nc_polys(n=4), nc_polys(n=4))
    def test_algebra_homomorphism(self, x, y):
        assert psi(x * y, 2, 2) == psi(x, 2, 2) * psi(y, 2, 2)

    @given(nc_polys(n=4))
    def test_respects_conjugation(self, x):
        assert psi(x.conjugate(), 2, 2) == psi(x, 2, 2).conjugate()

    def test_ambient_checked(self):
        with pytest.raises(ValueError):
            psi(a(4, 1, 2), 2, 3)

    @given(nc_polys(n=5))  # module elements live on kp+1 strands
    def test_star_rejected_by_plain_map(self, x):
        with pytest.raises(ValueError):
            psi(x, 2, 2)


class TestPsiStar:
    def test_first_strand(self):
        out = psi_star(a(5, 1, 5), 2, 2)
        assert out == {(1, 1): TensorPoly.one(2, 2)}

    def test_third_strand_splits(self):
        out = psi_star(a(5, 3, 5), 2, 2)
        assert out == {(2, 1): TensorPoly.one(2, 2)}

    def test_module_map_property(self):
        x = a(5, 1, 2) * a(5, 2, 5)
        out = psi_star(x, 2, 2)
        assert out == {(1, 2): psi(a(4, 1, 2), 2, 2)}

    def test_ambient_checked(self):
        with pytest.raises(ValueError, match="not kp \\+ 1"):
            psi_star(a(4, 1, 4), 2, 2)


class TestCableSplitting:
    @pytest.mark.parametrize(
        "alpha,p",
        [
            (BraidWord(2, ()), 2),
            (BraidWord(2, (1,)), 2),
            (BraidWord(2, (1, 1, 1)), 2),
            (BraidWord(3, (1, 2)), 2),
            (BraidWord(3, (1, -2)), 2),
            (BraidWord(2, (1,)), 3),
        ],
    )
    def test_cable_matrix_splits(self, alpha, p):
        report = verify_cable_matrix_split(alpha, p)
        assert report.ok, report.to_obj()

    @pytest.mark.parametrize("k,p", [(2, 2), (2, 3), (3, 2)])
    def test_letter_diagram_commutes(self, k, p):
        for n_gen in range(1, k):
            report = verify_commutes(n_gen, k, p)
            assert report.ok, report.to_obj()

    def test_identity_braid_diagram_is_trivial(self):
        # cabling the identity braid leaves the module map on strand kp+1 unchanged
        k = p = 2
        kp = k * p
        lifted = include_bar(cable(BraidWord(k, ()), p), kp + 1)
        for i in range(1, kp + 1):
            x = a(kp + 1, i, kp + 1)
            assert phi(lifted, x) == x
            assert psi_star(x, k, p) == psi_star(phi(lifted, x), k, p)

    @pytest.mark.parametrize("k,p", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_window_sums_collapse(self, k, p):
        for n_gen in range(1, k):
            report = verify_sum_collapse(n_gen, k, p)
            assert report.ok, report.to_obj()

    @pytest.mark.parametrize("verify", [verify_commutes, verify_sum_collapse])
    @pytest.mark.parametrize("n_gen", [0, 2])
    def test_generator_index_out_of_range(self, verify, n_gen):
        with pytest.raises(ValueError, match=f"generator index {n_gen} out of range for B_2"):
            verify(n_gen, 2, 2)

    def test_window_sums_need_a_strand(self):
        # p = 0 cables to no strands: the suite would compare nothing
        for p in (0, -1):
            with pytest.raises(ValueError, match=f"p must be >= 1, got {p}"):
                verify_sum_collapse(1, 2, p)

    def test_star_case_failure_names_the_entry(self, monkeypatch):
        # a wrong descending sum on the extra strand shows as one diff whose
        # sides are module elements, keyed by the str of (block, offset)
        sum_desc = splitting.sum_desc

        def wrong(amb, i, j, m, p):
            x = sum_desc(amb, i, j, m, p)
            return x + a(amb, 1, amb) if (amb, i, j) == (5, 3, 5) else x

        monkeypatch.setattr("augrank.splitting.sum_desc", wrong)
        report = verify_sum_collapse(1, 2, 2)
        assert report.diffs == [
            {
                "case": "descending",
                "i": 1,
                "j": "star",
                "lhs": {"(2, 1)": "1(x)1", "(1, 1)": "1(x)1 - a21(x)1"},
                "rhs": {"(2, 1)": "1(x)1", "(1, 1)": "-a21(x)1"},
            }
        ]
        assert list(report.diffs[0]) == ["case", "i", "j", "lhs", "rhs"]
        assert list(report.diffs[0]["lhs"]) == ["(2, 1)", "(1, 1)"]

    def test_commutes_failure_names_the_entry(self, monkeypatch):
        # a cable that drops its last letter: each diff names the entry (i, j)
        # of the big left matrix whose split differs from small (x) identity
        cable = splitting.cable
        monkeypatch.setattr(
            splitting, "cable", lambda b, p: BraidWord(b.n * p, cable(b, p).letters[:-1])
        )
        report = verify_commutes(1, 2, 2)
        assert report.diffs == [
            {"i": 2, "j": 1, "lhs": "1(x)1", "rhs": "0"},
            {"i": 2, "j": 2, "lhs": "0", "rhs": "-a21(x)1"},
            {"i": 2, "j": 4, "lhs": "0", "rhs": "1(x)1"},
            {"i": 3, "j": 1, "lhs": "0", "rhs": "1(x)1"},
            {"i": 3, "j": 2, "lhs": "-a21(x)1", "rhs": "0"},
            {"i": 3, "j": 4, "lhs": "1(x)1", "rhs": "0"},
        ]
        assert list(report.diffs[0]) == ["i", "j", "lhs", "rhs"]

    def test_reports_carry_structure(self, monkeypatch):
        report = verify_cable_matrix_split(BraidWord(2, (1,)), 2)
        obj = report.to_obj()
        assert obj["status"] == "pass"
        assert obj["claim"]
        assert obj["parameters"]["p"] == 2
        assert obj["diffs"] == []
        # a psi that loses every entry: the first diff is the (1, 1) entry of
        # the left matrix, whose small-matrix side is -a21 (x) 1
        monkeypatch.setattr(splitting, "psi", lambda x, k, p: TensorPoly.zero(k, p))
        obj = verify_cable_matrix_split(BraidWord(2, (1,)), 2).to_obj()
        assert obj["status"] == "fail"
        want = tensor_embed_left(-a(2, 2, 1), 2)
        assert obj["diffs"][0] == {"side": "L", "i": 1, "j": 1, "lhs": "0", "rhs": want.render()}
        assert list(obj["diffs"][0]) == ["side", "i", "j", "lhs", "rhs"]
        assert {d["side"] for d in obj["diffs"]} == {"L", "R"}


@given(braid_words(min_n=2, max_n=3, max_len=4), st.integers(2, 3))
def test_pattern_block_transport(alpha, p):
    # generators in the first block move as one block under the cabled action
    kp = alpha.n * p
    cabled = cable(alpha, p)
    shift = (perm(alpha)(1) - 1) * p
    for i in range(1, p + 1):
        for j in range(1, p + 1):
            if i == j:
                continue
            moved = phi(cabled, a(kp, i, j))
            assert moved == a(kp, i + shift, j + shift)
            assert psi(moved, alpha.n, p) == tensor_embed_right(a(p, i, j), alpha.n)
