"""Braid words, strand permutations, and cable/satellite/torus constructors.

Braids are read left to right.  A word is a sequence of nonzero integers: the
letter ``e`` stands for the Artin generator sigma_|e| when ``e > 0`` and for
its inverse when ``e < 0``.  Words are never freely reduced or otherwise
normalized; every operation acts on the literal word as given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import jsonio


@dataclass(frozen=True)
class BraidWord:
    """A braid given by an explicit word in B_n."""

    n: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"strand count must be >= 1, got {self.n}")
        object.__setattr__(self, "letters", tuple(self.letters))
        for e in self.letters:
            if e == 0 or abs(e) > self.n - 1:
                raise ValueError(f"letter {e} is out of range for B_{self.n}")

    @classmethod
    def from_text(cls, n: int, text: str) -> "BraidWord":
        """Parse the whitespace-separated signed-integer format, e.g. "1 1 1"."""
        try:
            letters = tuple(int(tok) for tok in text.split())
        except ValueError:
            message = f"braid word must be integers separated by spaces, such as '1 -2 1', got {text!r}"
            raise ValueError(message) from None
        return cls(n, letters)

    def to_text(self) -> str:
        return " ".join(str(e) for e in self.letters)

    def to_obj(self) -> dict:
        """The JSON form ``{"n": n, "word": [letters]}`` used by every record."""
        return {"n": self.n, "word": list(self.letters)}

    @classmethod
    def from_obj(cls, obj: dict) -> "BraidWord":
        letters = tuple(jsonio.integer(e, "braid letter") for e in obj["word"])
        return cls(jsonio.integer(obj["n"], "braid n"), letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if not isinstance(other, BraidWord):
            return NotImplemented
        if other.n != self.n:
            raise ValueError(f"cannot concatenate words in B_{self.n} and B_{other.n}")
        return BraidWord(self.n, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.n, tuple(-e for e in reversed(self.letters)))


@dataclass(frozen=True)
class Perm:
    """A permutation of {1..n}, stored as the tuple of images of 1..n."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(self.images))
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a bijection on 1..{len(self.images)}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def cycles(self) -> list[tuple[int, ...]]:
        seen: set[int] = set()
        out = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            j = self(start)
            while j != start:
                cyc.append(j)
                seen.add(j)
                j = self(j)
            out.append(tuple(cyc))
        return out


def writhe(beta: BraidWord) -> int:
    """Sum of the signs of the letters (algebraic length)."""
    return sum(1 if e > 0 else -1 for e in beta.letters)


def perm(beta: BraidWord) -> Perm:
    """The strand permutation of a braid word.

    Each letter contributes the transposition (|e|, |e|+1); letters compose so
    that perm(b1 * b2)(i) == perm(b1)(perm(b2)(i)).  This is the convention
    under which every monomial of a row i of the left action matrix starts
    with the index perm(beta)(i); see the action module.
    """
    images = list(range(1, beta.n + 1))
    for e in beta.letters:
        k = abs(e)
        images[k - 1], images[k] = images[k], images[k - 1]
    return Perm(tuple(images))


def component_count(beta: BraidWord) -> int:
    """Number of link components of the braid closure."""
    return len(perm(beta).cycles())


def _band_cross_word(m: int, p: int) -> list[int]:
    # Positive crossing of the p-strand band at slots {m..m+p-1} over the band
    # at {m+p..m+2p-1}, emitted column by column (diamond pattern); for p = 2,
    # m = 1 this is sigma2 sigma1 sigma3 sigma2.
    word = []
    for c in range(1, 2 * p):
        for a in range(max(1, p - c + 1), min(p, 2 * p - c) + 1):
            b = c - p + a
            word.append(m + a + b - 2)
    return word


def cable(alpha: BraidWord, p: int) -> BraidWord:
    """The blackboard-framed p-cable: each strand replaced by p parallel copies.

    Each positive letter becomes the canonical band-crossing word; a negative
    letter becomes the inverse word reversed.
    """
    if p < 1:
        raise ValueError(f"cable multiplicity must be >= 1, got {p}")
    out: list[int] = []
    for e in alpha.letters:
        block = _band_cross_word((abs(e) - 1) * p + 1, p)
        if e > 0:
            out.extend(block)
        else:
            out.extend(-x for x in reversed(block))
    return BraidWord(alpha.n * p, tuple(out))


def include_bar(gamma: BraidWord, kp: int) -> BraidWord:
    """Reinterpret gamma in B_kp; strands gamma.n+1..kp are untouched."""
    if kp < gamma.n:
        raise ValueError(f"cannot include B_{gamma.n} into B_{kp}")
    return BraidWord(kp, gamma.letters)


def satellite_braid(alpha: BraidWord, gamma: BraidWord) -> BraidWord:
    """The satellite word: the p-cable of alpha followed by gamma included in B_kp."""
    p = gamma.n
    return cable(alpha, p) * include_bar(gamma, alpha.n * p)


def torus_braid(p: int, q: int) -> BraidWord:
    """(sigma_1 ... sigma_{p-1})^q; a negative q means the inverse word."""
    if p < 1:
        raise ValueError(f"torus braid needs p >= 1, got {p}")
    base = tuple(range(1, p))
    full = BraidWord(p, base * abs(q))
    return full if q >= 0 else full.inverse()


def iterated_torus_braid(ps: Sequence[int], qs: Sequence[int]) -> BraidWord:
    """Fold of satellite_braid over torus braids; empty vectors give the unknot.

    The intermediate braid at each step is the construction's own output; it
    is treated as the minimal-index representative but this is not verified.
    """
    if len(ps) != len(qs):
        raise ValueError(f"length mismatch: {len(ps)} vs {len(qs)}")
    if not ps:
        return BraidWord(1)
    beta = torus_braid(ps[0], qs[0])
    for p, q in zip(ps[1:], qs[1:]):
        beta = satellite_braid(beta, torus_braid(p, q))
    return beta


def tau_word(m: int, l: int, n: int) -> BraidWord:
    """sigma_m sigma_{m+1} ... sigma_{m+l-1} in B_n."""
    if m < 1 or l < 0 or m + l - 1 > n - 1:
        raise ValueError(f"tau word (m={m}, l={l}) does not fit in B_{n}")
    return BraidWord(n, tuple(range(m, m + l)))

