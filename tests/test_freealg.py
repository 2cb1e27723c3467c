import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from augrank.freealg import (
    MAX_STRANDS,
    Assignment,
    NCPoly,
    TermBudgetError,
    check_word,
    decode_word,
    mon_key,
    term_budget,
)
from augrank.splitting import TensorPoly

from strategies import nc_polys


def a(n, i, j):
    return NCPoly.gen(n, i, j)


class TestRing:
    def test_one_is_identity(self):
        x = a(2, 1, 2) * a(2, 2, 1) - 3
        assert NCPoly.one(2) * x == x
        assert x * NCPoly.one(2) == x

    def test_noncommutative(self):
        assert a(2, 1, 2) * a(2, 2, 1) != a(2, 2, 1) * a(2, 1, 2)

    def test_cancellation_gives_empty_term_map(self):
        z = a(2, 1, 2) - a(2, 1, 2)
        assert not z
        assert dict(z.terms) == {}

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(ValueError):
            a(2, 1, 2) + a(3, 1, 2)
        with pytest.raises(ValueError):
            a(2, 1, 2) * a(3, 1, 3)  # the extra strand is a third strand
        with pytest.raises(ValueError, match="ambient size must be >= 1, got 0"):
            NCPoly.one(0)

    def test_immutable(self):
        x = a(2, 1, 2)
        with pytest.raises(AttributeError, match="NCPoly is immutable"):
            x._terms = {}
        assert x == a(2, 1, 2)

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            NCPoly.gen(2, 1, 3)
        with pytest.raises(ValueError):
            NCPoly.gen(2, 1, 1)
        assert NCPoly.gen(3, 1, 3)  # the extra strand of B_2 is strand 3 of 3
        with pytest.raises(ValueError):
            TensorPoly(2, 3, {(((1, 3),), ()): 1})  # left factor has 2 strands
        with pytest.raises(ValueError):
            TensorPoly(3, 2, {((), ((1, 3),)): 1})  # right factor has 2 strands
        with pytest.raises(ValueError):
            TensorPoly(2, 2, {(((1, 1),), ((1, 2),)): 1})
        assert TensorPoly(2, 3, {(((1, 2),), ((1, 3),)): 1})

    def test_non_integer_coefficient_rejected(self):
        # int() used to truncate these: 1/2 gave the zero polynomial and 2.7 gave 2
        for c in (Fraction(1, 2), 2.7, 1.0, 0.0, 1 + 0j):
            with pytest.raises(TypeError, match=re.escape(f"monomial ((1, 2),) must be an integer, got {c!r}")):
                NCPoly(2, {((1, 2),): c})
            with pytest.raises(TypeError, match=re.escape("monomial () must be an integer")):
                NCPoly(2, {(): c})
        with pytest.raises(TypeError, match="must be an integer, got 0.5"):
            TensorPoly(2, 2, {(((1, 2),), ()): 0.5})

    def test_integer_coefficients_accepted(self):
        for c in (3, np.int64(3), np.int8(3)):
            x = NCPoly(2, {((1, 2),): c}) + NCPoly(2, {(): c})
            assert x == 3 * a(2, 1, 2) + 3
            assert all(type(v) is int for v in x.terms.values())

    @given(nc_polys(n=3), nc_polys(n=3), nc_polys(n=3))
    def test_ring_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z

    def test_foreign_operands(self):
        # an operand that is neither an int nor the same kind of polynomial
        # is refused by both sides of the operator
        x = a(2, 1, 2) + 1
        for op in (lambda: x + "a", lambda: x * 1.5, lambda: 2.5 * x,
                   lambda: TensorPoly(2, 2, {((), ()): 1}) + NCPoly.one(2)):
            with pytest.raises(TypeError):
                op()
        assert (x == 3) is False and x != 3 * NCPoly.one(2)

    @given(nc_polys(n=3, max_terms=6))
    def test_zero_operand_fast_paths(self, x):
        # products and sums with a zero return at once and equal what the general loops give
        tensor = TensorPoly(3, 2, {(m, ((1, 2),)): c for m, c in x.terms.items()})
        for y, zero in ((x, NCPoly.zero(3)), (tensor, TensorPoly.zero(3, 2))):
            for got in (y * zero, zero * y, y * 0, 0 * y):
                assert got == zero
            for got in (y - zero, y + zero, y - 0):
                assert got == y
                assert list(got.terms.items()) == list(y.terms.items())
            with pytest.raises(ValueError, match="ambient"):
                y * type(zero).zero(*(a + 1 for a in zero._amb))

    @given(nc_polys(n=3), st.integers(-5, 5))
    def test_int_scalars(self, x, c):
        assert c * x == NCPoly(3, {(): c}) * x
        assert x * c == x * NCPoly(3, {(): c})

    @given(nc_polys(n=3), st.integers(-5, 5))
    def test_int_minus_poly(self, x, c):
        assert c - x == -(x - c) == NCPoly(3, {(): c}) - x
        assert 1 - x == -(x - 1)


class TestConjugation:
    def test_reverses_and_swaps(self):
        x = a(3, 1, 2) * a(3, 2, 3)
        assert x.conjugate() == a(3, 3, 2) * a(3, 2, 1)

    def test_constants_fixed(self):
        assert (5 * NCPoly.one(2)).conjugate() == 5 * NCPoly.one(2)

    @given(nc_polys(n=3))
    def test_involution(self, x):
        assert x.conjugate().conjugate() == x

    @given(nc_polys(n=3), nc_polys(n=3))
    def test_anti_automorphism(self, x, y):
        assert (x * y).conjugate() == y.conjugate() * x.conjugate()


def _assignment(n, values, lam=1.0, mu=2.0):
    return Assignment(n, values, lam, mu)


def _random_values(n, seed):
    import random

    rng = random.Random(seed)
    return {
        (i, j): complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
    }


class TestEvaluate:
    def test_constant(self):
        eps = _assignment(2, _random_values(2, 0))
        assert NCPoly.one(2).evaluate(eps.values) == 1

    def test_product_of_generators(self):
        eps = _assignment(2, _random_values(2, 1))
        x = a(2, 1, 2) * a(2, 2, 1)
        assert x.evaluate(eps.values) == eps.value(1, 2) * eps.value(2, 1)

    @given(nc_polys(n=3, max_coeff=1000), nc_polys(n=3, max_coeff=1000), st.integers(0, 10))
    def test_homomorphism(self, x, y, seed):
        values = _random_values(3, seed)
        lhs = (x * y).evaluate(values)
        rhs = x.evaluate(values) * y.evaluate(values)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))

    @given(nc_polys(n=3, max_terms=5), st.integers(0, 10))
    def test_conjugate_evaluates_under_swap(self, x, seed):
        eps = _assignment(3, _random_values(3, seed))
        lhs = x.conjugate().evaluate(eps.values)
        rhs = x.evaluate({(j, i): v for (i, j), v in eps.values.items()})
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_missing_generator(self):
        x = a(3, 1, 3)
        with pytest.raises(ValueError, match="no value"):
            x.evaluate({(1, 2): 1.0})


class TestAssignment:
    def test_requires_all_generators(self):
        with pytest.raises(ValueError, match="missing"):
            Assignment(2, {(1, 2): 1.0}, 1.0, 2.0)

    def test_rejects_extra_generators(self):
        vals = _random_values(2, 0)
        vals[(1, 3)] = 1.0
        with pytest.raises(ValueError):
            Assignment(2, vals, 1.0, 2.0)

    def test_rejects_zero_lambda_mu(self):
        with pytest.raises(ValueError):
            Assignment(2, _random_values(2, 0), 0.0, 2.0)
        with pytest.raises(ValueError):
            Assignment(2, _random_values(2, 0), 1.0, 0.0)


class TestTextForm:
    def test_canonical_rendering(self):
        x = -a(2, 2, 1) + a(2, 1, 2) * a(2, 2, 1) * a(2, 1, 2)
        assert x.render() == "-a21 + a12*a21*a12"
        assert NCPoly.zero(2).render() == "0"
        assert (NCPoly.one(2) * 3).render() == "3"
        y = -2 * a(2, 2, 1) + a(2, 2, 1) * a(2, 1, 2) * a(2, 2, 1)
        assert y.render() == "-2*a21 + a21*a12*a21"

    def test_double_digit_indices(self):
        x = NCPoly.gen(12, 10, 11)
        assert x.render() == "a10,11"

    def test_repr_names_the_type(self):
        assert repr(1 - a(2, 1, 2) * a(2, 2, 1)) == "<NCPoly 1 - a12*a21>"
        assert repr(NCPoly.zero(2)) == "<NCPoly 0>"


def minus_product(y, x, z, budget=10**6):
    """y - x*z from one copy of y's terms, the symbolic letter fold's update."""
    return type(y)._raw(y._amb, y._add_product(dict(y._terms), x, z, -1, budget))


class TestSubProduct:
    """_add_product with sign -1 into a copy of y's terms: the fold's y - a*b."""

    @given(nc_polys(n=3), nc_polys(n=3), nc_polys(n=3))
    def test_matches_sub_of_product(self, y, x, z):
        assert minus_product(y, x, z) == y - x * z

    def test_tensor_poly(self):
        t = lambda terms: TensorPoly(2, 3, terms)
        y = t({(((1, 2),), ((1, 3),)): 2, ((), ()): -1})
        x = t({(((1, 2),), ()): 1, ((), ((3, 1),)): 3})
        z = t({((), ((1, 3),)): 2, (((2, 1),), ()): -1})
        assert minus_product(y, x, z) == y - x * z
        assert minus_product(y, x, z) != y

    def test_zero_operands(self):
        y, x = a(3, 1, 2) - 2, a(3, 2, 3) * a(3, 3, 1)
        zero = NCPoly.zero(3)
        terms = dict(y._terms)
        assert y._add_product(terms, zero, x, -1, 10**6) is terms == y._terms
        assert y._add_product(terms, x, zero, -1, 10**6) is terms == y._terms
        assert minus_product(zero, x, y) == -(x * y)
        assert not minus_product(x * y, x, y)

    def test_budget(self):
        y = a(2, 1, 2) + 1
        x = a(2, 1, 2) + a(2, 2, 1)
        # y - x*x has 6 monomials; the update must hold them all
        with pytest.raises(TermBudgetError, match="over the budget of 5"):
            minus_product(y, x, x, budget=5)
        assert minus_product(y, x, x, budget=6) == y - x * x


class TestTermBudget:
    def test_budget_error(self, monkeypatch):
        monkeypatch.setenv("KCH_TERM_BUDGET", "3")
        for x in (
            a(2, 1, 2) + a(2, 2, 1) + 1,
            TensorPoly(2, 2, {(((1, 2),), ()): 1, ((), ((2, 1),)): 1, ((), ()): 1}),
        ):
            with pytest.raises(TermBudgetError, match="budget"):
                x * x

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("KCH_TERM_BUDGET", "17")
        assert term_budget() == 17
        monkeypatch.delenv("KCH_TERM_BUDGET")
        assert term_budget() == 1_000_000

    @pytest.mark.parametrize("raw", ["abc", "1e6", "0"])
    def test_malformed_env_is_named(self, monkeypatch, raw):
        monkeypatch.setenv("KCH_TERM_BUDGET", raw)
        with pytest.raises(ValueError, match=f"KCH_TERM_BUDGET must be a positive integer, got '{raw}'"):
            term_budget()


# A reference core on tuple monomials, the representation NCPoly used before
# words were encoded as strings: the same algorithm, so the same term order.
def _ref_accumulate(terms, pairs, sign=1):
    for m, c in pairs:
        acc = terms.get(m, 0) + sign * c
        if acc:
            terms[m] = acc
        else:
            del terms[m]
    return terms


def ref_add(x, y):
    return _ref_accumulate(dict(x), y.items())


def ref_add_product(y, a, b, sign=-1):
    return _ref_accumulate(dict(y), ((m1 + m2, c1 * c2) for m1, c1 in a.items() for m2, c2 in b.items()), sign)


def ref_mul(a, b):
    return ref_add_product({}, a, b, 1)


def ref_conjugate(x):
    return {tuple((j, i) for i, j in reversed(m)): c for m, c in x.items()}


def ref_render(x):
    items = []
    for m, c in sorted(x.items(), key=lambda mc: (len(mc[0]), mc[0])):
        body = "*".join(f"a{i}{j}" if i < 10 and j < 10 else f"a{i},{j}" for i, j in m)
        items.append((c, body if abs(c) == 1 and body else f"{abs(c)}*{body}" if body else str(abs(c))))
    text = "".join(f" {'-' if c < 0 else '+'} {t}" for c, t in items)
    return "0" if not text else text[3:] if text[1] == "+" else "-" + text[3:]


class TestAgainstTupleReference:
    @given(st.sampled_from([3, 12, MAX_STRANDS]).flatmap(lambda n: st.tuples(*[nc_polys(n=n, max_coeff=3)] * 3)))
    def test_terms_and_order(self, polys):
        y, x, z = polys
        ref = lambda p: dict(p.terms)
        for got, want in (
            (x + z, ref_add(ref(x), ref(z))),
            (x * z, ref_mul(ref(x), ref(z))),
            (minus_product(y, x, z), ref_add_product(ref(y), ref(x), ref(z))),
            (x.conjugate(), ref_conjugate(ref(x))),
        ):
            assert list(got.terms.items()) == list(want.items())
            assert got.render() == ref_render(want)

    def test_terms_are_tuples_of_pairs(self):
        x = a(12, 10, 11) * a(12, 11, 1) - 2
        assert list(x.terms.items()) == [(((10, 11), (11, 1)), 1), ((), -2)]


GEN_INDICES = st.integers(1, MAX_STRANDS)
GENERATORS = st.tuples(GEN_INDICES, GEN_INDICES).filter(lambda g: g[0] != g[1])


class TestWordEncoding:
    @given(st.lists(GENERATORS, max_size=4), st.lists(GENERATORS, max_size=4))
    def test_round_trip_and_order(self, m1, m2):
        w1, w2 = (check_word(m, MAX_STRANDS, "") for m in (m1, m2))
        assert decode_word(w1) == tuple(m1)
        assert (mon_key(w1) < mon_key(w2)) == ((len(m1), m1) < (len(m2), m2))
        assert w1.encode("utf-8").decode("utf-8") == w1

    def test_boundary_codes(self):
        edge = [1, 2, 54, 55, 56, 511, 512, 1022, MAX_STRANDS]
        mons = [((i, j),) for i in edge for j in edge if i != j]
        words = [check_word(m, MAX_STRANDS, "") for m in mons]
        assert [decode_word(w) for w in words] == mons
        assert sorted(words) == [check_word(m, MAX_STRANDS, "") for m in sorted(mons)]
        assert all(not 0xD800 <= ord(w) <= 0xDFFF for w in words)  # no surrogate

    def test_highest_generator(self):
        x = NCPoly.gen(MAX_STRANDS, MAX_STRANDS, MAX_STRANDS - 1)
        assert str(x) == "a1023,1022"
        assert (x * x).conjugate().render() == "a1022,1023*a1022,1023"

    @pytest.mark.parametrize("make", [
        lambda: NCPoly(MAX_STRANDS + 1),
        lambda: NCPoly.zero(MAX_STRANDS + 1),
        lambda: NCPoly.one(MAX_STRANDS + 1),
        lambda: NCPoly(MAX_STRANDS + 1, {(): 2}),
        lambda: NCPoly.gen(MAX_STRANDS + 1, 1, 2),
        lambda: TensorPoly(2, MAX_STRANDS + 1),
    ])
    def test_ambient_over_the_limit(self, make):
        with pytest.raises(ValueError, match="over the free algebra's limit of 1023 strands"):
            make()
