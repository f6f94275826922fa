"""Spinor generators as (phase, binary-partitioning) word pairs.

The calculus is four GF(2) rules on packed keys, each written once for a
Python int or a numpy integer array: omega, key_product, key_self_parity
and key_conjugate.  realize builds the Kronecker-product matrices of a
whole key array, one tensor position at a time from the four real
one-qubit factors, over exact Gaussian integers; they back every rule as a
test oracle, and all matrix entries stay integral because the only scalars
that ever appear are powers of i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bitcore import BitWord, InvariantError, parity

ORACLE_MAX_P = 6


# ---------------------------------------------------------------------------
# packed keys: S[zeta|alpha] is the int (alpha << p) | zeta, so numeric order
# on keys is the canonical (alpha, zeta) order and bi-addition is plain XOR


def pack(zeta_bits: int, alpha_bits: int, p: int) -> int:
    return (alpha_bits << p) | zeta_bits


def key_of(s: Spinor) -> int:
    return (s.alpha.bits << s.p) | s.zeta.bits


def spinor_of_key(key: int, p: int) -> Spinor:
    mask = (1 << p) - 1
    return Spinor(BitWord(key & mask, p), BitWord(key >> p, p))


def swap_key(key: int, p: int) -> int:
    """Exchange the zeta and alpha halves of a packed key."""
    mask = (1 << p) - 1
    return ((key & mask) << p) | (key >> p)


# ---------------------------------------------------------------------------
# the rules: x >> p is alpha, and (x >> p) & y keeps alpha_x . zeta_y, since
# alpha_x has no bits at or above p


def omega(x, y, p: int):
    """The commutation form: 1 where S_x and S_y anti-commute, 0 where they
    commute; the parity of alpha_x . zeta_y + alpha_y . zeta_x."""
    return parity(((x >> p) & y) ^ ((y >> p) & x))


def key_product(x, y, p: int):
    """S_x S_y = i^e S_(x ^ y), as (e, x ^ y): the sign is
    (-1)^(alpha_x . zeta_y)."""
    return 2 * parity((x >> p) & y), x ^ y


def key_self_parity(x, p: int):
    """zeta . alpha: S_x squares to (-1)^that, and the hermitian form of an
    odd S_x carries a factor i."""
    return parity((x >> p) & x)


def key_conjugate(h, inverse: bool, x, p: int):
    """h S_x h-dagger (h-dagger S_x h when inverse) for h = h[zeta|alpha] of
    key h, as (e, key) with the result i^e S_key.  h fixes a commuting S_x
    and sends an anti-commuting one to i (-i)^(zeta.alpha) S_h S_x; the
    inverse direction differs by a sign."""
    anti = omega(h, x, p)
    e = key_product(h, x, p)[0]
    return anti * (1 + 2 * inverse + 3 * key_self_parity(h, p) + e) % 4, x ^ anti * h


def key_text(key: int, p: int, hermitian_norm: bool = False) -> str:
    """S[zeta|alpha], with the i-prefix of odd self parity when
    hermitian_norm is set."""
    text = f"S[{key & ((1 << p) - 1):0{p}b}|{key >> p:0{p}b}]"
    return f"i·{text}" if hermitian_norm and key_self_parity(key, p) else text


@lru_cache(maxsize=None)
def key_texts(p: int, hermitian_norm: bool = False) -> tuple[str, ...]:
    """key_text of every key 0..4^p - 1, in key order, composed from the
    2^p word strings; the i-prefix of key k is read at alpha & zeta.  Built
    once per (p, hermitian_norm) and shared, so it is a tuple."""
    words = list(enumerate(f"{w:0{p}b}" for w in range(1 << p)))
    prefix = ["i·" if hermitian_norm and parity(w) else "" for w, _ in words]
    return tuple(f"{prefix[a & z]}S[{zw}|{aw}]" for a, aw in words for z, zw in words)


@dataclass(frozen=True, order=False)
class Spinor:
    """Generator with phase string zeta and binary partitioning alpha."""

    zeta: BitWord
    alpha: BitWord

    def __post_init__(self) -> None:
        self.zeta._match(self.alpha)

    @property
    def p(self) -> int:
        return self.alpha.p

    def __lt__(self, other: "Spinor") -> bool:
        return key_of(self) < key_of(other)

    @classmethod
    def make(cls, zeta: str | int, alpha: str | int, p: int | None = None) -> "Spinor":
        if isinstance(zeta, str):
            return cls(BitWord.parse(zeta), BitWord.parse(str(alpha)))
        if p is None:
            raise InvariantError("integer words need an explicit width p")
        return cls(BitWord(zeta, p), BitWord(int(alpha), p))

    @classmethod
    def parse(cls, text: str) -> "Spinor":
        text = text.strip()
        if text.startswith("i·"):
            text = text[2:]
        if not (text.startswith("S[") and text.endswith("]") and "|" in text):
            raise ValueError(f"not a spinor literal: {text!r}")
        z, a = text[2:-1].split("|")
        return cls(BitWord.parse(z), BitWord.parse(a))

    def __str__(self) -> str:
        return key_text(key_of(self), self.p)

    def display(self, hermitian_norm: bool = False) -> str:
        return key_text(key_of(self), self.p, hermitian_norm)


@dataclass(frozen=True)
class PhasedSpinor:
    """Spinor with an exact power-of-i coefficient."""

    i_exp: int
    body: Spinor

    def __post_init__(self) -> None:
        object.__setattr__(self, "i_exp", self.i_exp % 4)

    def __str__(self) -> str:
        prefix = ["", "i·", "-", "-i·"][self.i_exp]
        return f"{prefix}{self.body}"


def bi_add(s: Spinor, t: Spinor) -> Spinor:
    """The phase-free group law: componentwise XOR."""
    return Spinor(s.zeta ^ t.zeta, s.alpha ^ t.alpha)


def product(s: Spinor, t: Spinor) -> PhasedSpinor:
    """Operator product; the sign is (-1)^(eta.alpha) for s=S[z|a], t=S[e|b]."""
    s.alpha._match(t.alpha)
    e, key = key_product(key_of(s), key_of(t), s.p)
    return PhasedSpinor(e, spinor_of_key(key, s.p))


def commutes(s: Spinor, t: Spinor) -> bool:
    """True iff the pair commutes; False means it anti-commutes."""
    s.alpha._match(t.alpha)
    return not omega(key_of(s), key_of(t), s.p)


def self_parity(s: Spinor) -> int:
    return key_self_parity(key_of(s), s.p)


# ---------------------------------------------------------------------------
# exact matrix oracle


class GaussianMatrix:
    """Dense matrix over the Gaussian integers, held as two int64 arrays."""

    __slots__ = ("re", "im")

    def __init__(self, re: np.ndarray, im: np.ndarray):
        self.re = np.asarray(re, dtype=np.int64)
        self.im = np.asarray(im, dtype=np.int64)

    def __matmul__(self, other: "GaussianMatrix") -> "GaussianMatrix":
        return GaussianMatrix(
            self.re @ other.re - self.im @ other.im,
            self.re @ other.im + self.im @ other.re,
        )

    def dagger(self) -> "GaussianMatrix":
        return GaussianMatrix(self.re.T.copy(), -self.im.T)

    def times_i_pow(self, k: int) -> "GaussianMatrix":
        k %= 4
        if k == 0:
            return GaussianMatrix(self.re.copy(), self.im.copy())
        if k == 1:
            return GaussianMatrix(-self.im, self.re.copy())
        if k == 2:
            return GaussianMatrix(-self.re, -self.im)
        return GaussianMatrix(self.im.copy(), -self.re)

    def scaled(self, c: int) -> "GaussianMatrix":
        return GaussianMatrix(c * self.re, c * self.im)

    def __add__(self, other: "GaussianMatrix") -> "GaussianMatrix":
        return GaussianMatrix(self.re + other.re, self.im + other.im)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussianMatrix):
            return NotImplemented
        return np.array_equal(self.re, other.re) and np.array_equal(self.im, other.im)

    def __repr__(self) -> str:
        return f"GaussianMatrix(re={self.re!r}, im={self.im!r})"


# _FACTORS[epsilon, a] = |0><a| + (-1)^epsilon |1><1+a|, the one-qubit factor
# of S[epsilon|a]; all four are real
_FACTORS = np.array([[[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
                     [[[1, 0], [0, -1]], [[0, 1], [-1, 0]]]], dtype=np.int64)


def realize(keys, p: int) -> GaussianMatrix:
    """The Kronecker matrices of a key array (or one int key), stacked along
    its axes, exact over Z[i]: one step per tensor position from the left,
    each multiplying in the factor picked by that position's zeta and alpha
    bits."""
    if p > ORACLE_MAX_P:
        raise ValueError(f"matrix oracle capped at p <= {ORACLE_MAX_P}, got {p}")
    keys = np.asarray(keys, dtype=np.int64)
    out = np.ones(keys.shape + (1, 1), dtype=np.int64)
    for shift in range(p - 1, -1, -1):
        f = _FACTORS[(keys >> shift) & 1, (keys >> (p + shift)) & 1]
        n = 2 * out.shape[-1]
        out = (out[..., :, None, :, None] * f[..., None, :, None, :]).reshape(*keys.shape, n, n)
    return GaussianMatrix(out, np.zeros_like(out))


def to_matrix(ps: PhasedSpinor | Spinor, hermitian_norm: bool = False) -> GaussianMatrix:
    """Kronecker realization of a (phased) spinor, exact over Z[i].

    With hermitian_norm the printed i-prefix for odd self parity is folded
    into the matrix, making the result hermitian.
    """
    if isinstance(ps, Spinor):
        ps = PhasedSpinor(0, ps)
    k = ps.i_exp + (self_parity(ps.body) if hermitian_norm else 0)
    return realize(key_of(ps.body), ps.body.p).times_i_pow(k)
