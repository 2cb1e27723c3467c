import math

import pytest
from hypothesis import given
import hypothesis.strategies as st

from augrank.braids import (
    BraidWord,
    Perm,
    cable,
    component_count,
    include_bar,
    iterated_torus_braid,
    perm,
    satellite_braid,
    tau_word,
    torus_braid,
    writhe,
)

from strategies import braid_words


class TestBraidWord:
    def test_letters_validated(self):
        with pytest.raises(ValueError):
            BraidWord(2, (2,))
        with pytest.raises(ValueError):
            BraidWord(3, (0,))
        with pytest.raises(ValueError):
            BraidWord(0, ())

    def test_identity_is_empty(self):
        assert BraidWord(3).letters == ()

    def test_text_round_trip(self):
        b = BraidWord(4, (1, -3, 2, 2, -1))
        assert BraidWord.from_text(4, b.to_text()) == b
        assert BraidWord.from_text(5, "") == BraidWord(5)

    @given(braid_words(min_n=2, max_n=5))
    def test_obj_round_trip(self, b):
        obj = b.to_obj()
        assert list(obj) == ["n", "word"] and obj["n"] == b.n and obj["word"] == list(b.letters)
        assert BraidWord.from_obj(obj) == b
        assert BraidWord.from_obj({"n": 1, "word": []}) == BraidWord(1)

    def test_concat_and_inverse(self):
        b = BraidWord(3, (1, -2))
        assert (b * b.inverse()).letters == (1, -2, 2, -1)
        with pytest.raises(ValueError):
            b * BraidWord(4, ())
        with pytest.raises(TypeError):
            b * 3


class TestWrithePerm:
    def test_writhe_examples(self):
        assert writhe(BraidWord(2, (1, 1, 1))) == 3
        assert writhe(BraidWord(4, ())) == 0
        assert writhe(BraidWord(3, (1, -2))) == 0

    def test_perm_examples(self):
        assert perm(BraidWord(2, (1,))).images == (2, 1)
        # left-to-right convention: sigma1 sigma2 maps 1->2->3->1
        assert perm(BraidWord(3, (1, 2))).images == (2, 3, 1)
        assert perm(BraidWord(3, ())).images == (1, 2, 3)

    def test_perm_is_homomorphism(self):
        b1, b2 = BraidWord(3, (1, 2, -1)), BraidWord(3, (2, 2))
        assert perm(b1 * b2).images == tuple(perm(b1)(perm(b2)(i)) for i in range(1, 4))

    def test_component_count_examples(self):
        assert component_count(BraidWord(2, (1,))) == 1
        assert component_count(BraidWord(2, ())) == 2
        assert component_count(BraidWord(2, (1, 1, 1))) == 1

    def test_perm_bijectivity_guard(self):
        with pytest.raises(ValueError):
            Perm((1, 1))


def _apply_relation_rewrites(word, n):
    """All words obtained from one legal braid-relation or far-commutation move."""
    out = []
    for t in range(len(word) - 1):
        a, b = word[t], word[t + 1]
        if abs(abs(a) - abs(b)) >= 2:
            out.append(word[:t] + (b, a) + word[t + 2 :])
    for t in range(len(word) - 2):
        a, b, c = word[t : t + 3]
        if a == c and a > 0 and b > 0 and b == a + 1:
            out.append(word[:t] + (b, a, b) + word[t + 3 :])
        if a == c and a > 0 and b > 0 and a == b + 1:
            out.append(word[:t] + (b, a, b) + word[t + 3 :])
    return out


@given(braid_words(min_n=2, max_n=5, max_len=8))
def test_perm_and_writhe_word_invariant(b):
    for rewritten in _apply_relation_rewrites(b.letters, b.n):
        other = BraidWord(b.n, rewritten)
        assert perm(other).images == perm(b).images
        assert writhe(other) == writhe(b)


class TestCable:
    def test_cable_of_identity(self):
        assert cable(BraidWord(3, ()), 2) == BraidWord(6, ())

    def test_cable_sigma1_p2(self):
        c = cable(BraidWord(2, (1,)), 2)
        assert c.letters == (2, 1, 3, 2)
        assert perm(c).images == (3, 4, 1, 2)
        assert writhe(c) == 4

    def test_cable_rejects_bad_multiplicity(self):
        with pytest.raises(ValueError):
            cable(BraidWord(2, (1,)), 0)

    @given(braid_words(max_n=3, max_len=6), st.integers(1, 3))
    def test_cable_writhe_scaling(self, b, p):
        assert writhe(cable(b, p)) == p * p * writhe(b)

    @given(braid_words(max_n=3, max_len=5), braid_words(max_n=3, max_len=4))
    def test_satellite_writhe_identity(self, alpha, gamma):
        p = gamma.n
        assert writhe(satellite_braid(alpha, gamma)) == p * p * writhe(alpha) + writhe(gamma)

    @given(braid_words(max_n=3, max_len=6), st.integers(1, 3))
    def test_cable_perm_is_block_lift(self, b, p):
        small, big = perm(b), perm(cable(b, p))
        for q in range(1, b.n + 1):
            for r in range(1, p + 1):
                assert big((q - 1) * p + r) == (small(q) - 1) * p + r

    def test_inverse_letter_cables_to_inverse_word(self):
        pos = cable(BraidWord(2, (1,)), 3)
        neg = cable(BraidWord(2, (-1,)), 3)
        assert neg == pos.inverse()


class TestIncludeAndSatellite:
    def test_include_examples(self):
        assert include_bar(BraidWord(2, (1,)), 4) == BraidWord(4, (1,))
        assert include_bar(BraidWord(3, ()), 6) == BraidWord(6, ())
        with pytest.raises(ValueError):
            include_bar(BraidWord(3, (1,)), 2)

    def test_included_perm_fixes_tail(self):
        pm = perm(include_bar(BraidWord(2, (1,)), 5))
        assert all(pm(i) == i for i in range(3, 6))

    def test_satellite_of_identity_companion(self):
        gamma = BraidWord(2, (1, -1, 1))
        assert satellite_braid(BraidWord(3, ()), gamma) == include_bar(gamma, 6)

    def test_satellite_trefoil_pattern_sigma1(self):
        s = satellite_braid(BraidWord(2, (1, 1, 1)), BraidWord(2, (1,)))
        assert s.n == 4
        assert len(s.letters) == 4 * 3 + 1
        assert len(perm(s).cycles()) == 1

    def test_satellite_of_knots_is_knot(self):
        patterns = [BraidWord(2, (1,)), BraidWord(2, (1, 1, 1)), BraidWord(3, (1, 2))]
        for n in (2, 3):
            pool = [e for e in range(-(n - 1), n) if e != 0]
            words = [()]
            for _ in range(5):
                words = [w + (e,) for w in words for e in pool]
                for w in words:
                    alpha = BraidWord(n, w)
                    if component_count(alpha) != 1:
                        continue
                    for gamma in patterns:
                        assert component_count(satellite_braid(alpha, gamma)) == 1


class TestTorusAndPatterns:
    def test_torus_examples(self):
        assert torus_braid(2, 3).letters == (1, 1, 1)
        assert torus_braid(3, 1).letters == (1, 2)
        assert torus_braid(2, -3) == torus_braid(2, 3).inverse()

    @pytest.mark.parametrize("p", [2, 3, 4])
    @pytest.mark.parametrize("q", [-5, -2, 1, 2, 3, 4, 6])
    def test_torus_components_are_gcd(self, p, q):
        assert component_count(torus_braid(p, q)) == math.gcd(p, abs(q))

    def test_iterated_examples(self):
        assert iterated_torus_braid((2,), (3,)) == torus_braid(2, 3)
        expected = satellite_braid(BraidWord(2, (1, 1, 1)), BraidWord(2, (1,)))
        assert iterated_torus_braid((2, 2), (3, 1)) == expected
        assert iterated_torus_braid((2, 3, 2), (3, 7, 1)).n == 12
        assert iterated_torus_braid((), ()) == BraidWord(1)
        with pytest.raises(ValueError):
            iterated_torus_braid((2, 2), (3,))
        # every degree goes through torus_braid, which names the bad one
        with pytest.raises(ValueError, match="^torus braid needs p >= 1, got 0$"):
            iterated_torus_braid((2, 0), (3, 1))


class TestTauKappaWords:
    def test_tau_example(self):
        assert tau_word(1, 2, 3).letters == (1, 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            tau_word(3, 3, 4)
