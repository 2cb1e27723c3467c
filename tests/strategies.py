"""Hypothesis strategies for braid words and free-algebra elements."""

import hypothesis.strategies as st

from augrank.braids import BraidWord
from augrank.freealg import NCPoly


def letters_for(n):
    return st.sampled_from([e for e in range(-(n - 1), n) if e != 0])


@st.composite
def braid_words(draw, min_n=2, max_n=4, max_len=6):
    n = draw(st.integers(min_n, max_n))
    length = draw(st.integers(0, max_len))
    word = tuple(draw(letters_for(n)) for _ in range(length))
    return BraidWord(n, word)


@st.composite
def braid_word_pairs(draw, min_n=2, max_n=4, max_len=5):
    n = draw(st.integers(min_n, max_n))
    words = []
    for _ in range(2):
        length = draw(st.integers(0, max_len))
        words.append(BraidWord(n, tuple(draw(letters_for(n)) for _ in range(length))))
    return words[0], words[1]


@st.composite
def monomials(draw, n, max_deg=3):
    deg = draw(st.integers(0, max_deg))
    gens = []
    for _ in range(deg):
        i = draw(st.integers(1, n))
        j = draw(st.integers(1, n).filter(lambda x, i=i: x != i))
        gens.append((i, j))
    return tuple(gens)


@st.composite
def nc_polys(draw, n=None, min_n=2, max_n=4, max_terms=4, max_deg=3, max_coeff=6):
    if n is None:
        n = draw(st.integers(min_n, max_n))
    count = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(count):
        mon = draw(monomials(n, max_deg=max_deg))
        coeff = draw(st.integers(-max_coeff, max_coeff))
        terms[mon] = terms.get(mon, 0) + coeff
    return NCPoly(n, terms)
