"""Exact GF(2) arithmetic on p-bit words and subgroup machinery of Z_2^p.

Words are fixed-width bit strings; the leftmost printed character is bit 1
and is stored as the most significant bit, so lexicographic order on the
printed strings coincides with numeric order on the stored integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

MAX_WIDTH = 16


class InvariantError(AssertionError):
    """An internal invariant does not hold.  Raised explicitly, so the check
    survives ``python -O``; the CLI maps it, as any AssertionError, to exit 1."""


def _check_width(p: int) -> None:
    if not 1 <= p <= MAX_WIDTH:
        raise ValueError(f"word width must be in 1..{MAX_WIDTH}, got {p}")


# ---------------------------------------------------------------------------
# int-level GF(2) helpers (rows are ints, bit j = variable j, LSB = var 0)


def parity(x):
    """Parity of the set bits of an int, or elementwise over the full width of
    a numpy integer array, in its dtype: XOR-folded to 16 bits, then looked up
    (np.bitwise_count needs numpy >= 2.0; int.bit_count is faster on one int)."""
    if isinstance(x, int):
        return x.bit_count() & 1
    dtype, shift = x.dtype, x.dtype.itemsize * 8
    if shift <= 16:
        return _parity_table().take(x.view(f"u{dtype.itemsize}")).astype(dtype)
    while shift > 16:  # fold the high half onto the low half
        shift //= 2
        x = x ^ (x >> shift)
    return _parity_table().take(x & 0xFFFF).astype(dtype)


@lru_cache(maxsize=None)
def _parity_table() -> np.ndarray:
    """Parity of every 16-bit word: 64 KiB, built on first use."""
    return gf2_span(np.ones((1, 16), np.uint8))[0]


def gf2_rank(rows: Iterable[int]) -> int:
    return len(gf2_echelon(rows))


def gf2_reduce(vec: int, basis: Sequence[int]) -> int:
    """Reduce vec against rows sorted descending by leading bit."""
    for row in basis:
        vec = min(vec, vec ^ row)
    return vec


def gf2_echelon(rows: Iterable[int]) -> list[int]:
    """Fully reduced echelon basis, sorted descending by leading bit."""
    basis: list[int] = []
    for row in rows:
        row = gf2_reduce(row, basis)
        if row:
            basis = [min(b, b ^ row) for b in basis]
            basis.append(row)
            basis.sort(reverse=True)
    return basis


def gf2_span(rows: Iterable[int] | np.ndarray) -> list[int] | np.ndarray:
    """Every XOR combination of independent rows; entry i combines the
    rows whose positions are the set bits of i.  Rows are ints, giving a
    list, or a batch: an (N, r) array spans row by row into (N, 2^r)."""
    if isinstance(rows, np.ndarray):
        out = np.zeros((len(rows), 1 << rows.shape[1]), dtype=rows.dtype)
        for b in range(rows.shape[1]):
            np.bitwise_xor(out[:, : 1 << b], rows[:, b, None], out=out[:, 1 << b : 2 << b])
        return out
    vals = [0]
    for row in rows:
        vals += [v ^ row for v in vals]
    return vals


def gf2_nullspace(rows: Sequence[int], width: int) -> list[int]:
    """Basis of {x : parity(x & row) = 0 for all rows}, width-bit vectors."""
    basis = gf2_echelon(rows)
    pivots = [b.bit_length() - 1 for b in basis]
    free = [j for j in range(width) if j not in pivots]
    out = []
    for j in free:
        vec = 1 << j
        # back-substitute: pivot bit set iff the row hits an odd number of
        # already-set bits
        for b, piv in zip(basis, pivots):
            if ((b & vec).bit_count()) & 1:
                vec |= 1 << piv
        out.append(vec)
    return out


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True, order=True)
class BitWord:
    """A p-digit binary string over GF(2); addition is bitwise XOR."""

    bits: int
    p: int

    def __post_init__(self) -> None:
        _check_width(self.p)
        if not 0 <= self.bits < (1 << self.p):
            raise ValueError(f"bits {self.bits:#x} out of range for width {self.p}")

    @classmethod
    def parse(cls, text: str) -> BitWord:
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"not a binary string: {text!r}")
        return cls(int(text, 2), len(text))

    def __str__(self) -> str:
        return format(self.bits, f"0{self.p}b")

    def __xor__(self, other: BitWord) -> BitWord:
        self._match(other)
        return BitWord(self.bits ^ other.bits, self.p)

    def _match(self, other: BitWord) -> None:
        if self.p != other.p:
            raise ValueError(f"width mismatch: {self.p} vs {other.p}")

    @property
    def is_zero(self) -> bool:
        return self.bits == 0


def dot(a: BitWord, b: BitWord) -> int:
    """Parity of the bitwise AND: the Z_2 inner product of two words."""
    a._match(b)
    return parity(a.bits & b.bits)


@dataclass(frozen=True)
class BitSubgroup:
    """Subgroup of Z_2^p held as a fully reduced echelon basis.

    The basis is canonical, so equal subgroups compare equal structurally.
    """

    p: int
    basis: tuple[BitWord, ...]  # ascending numeric order, echelon-reduced

    @classmethod
    def span(cls, generators: Iterable[BitWord], p: Optional[int] = None) -> BitSubgroup:
        gens = list(generators)
        if p is None:
            if not gens:
                raise ValueError("empty span needs an explicit width p")
            p = gens[0].p
        for g in gens:
            if g.p != p:
                raise ValueError(f"width mismatch: {g.p} vs {p}")
        rows = gf2_echelon(w.bits for w in gens)
        return cls(p, tuple(BitWord(r, p) for r in sorted(rows)))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def __len__(self) -> int:
        return 1 << self.rank

    def __contains__(self, w: BitWord) -> bool:
        if w.p != self.p:
            return False
        return gf2_reduce(w.bits, [b.bits for b in reversed(self.basis)]) == 0

    def members(self) -> list[BitWord]:
        """All 2^rank members in ascending order."""
        return [BitWord(v, self.p) for v in self.member_bits()]

    def member_bits(self) -> list[int]:
        return sorted(gf2_span(b.bits for b in self.basis))

    def is_subgroup_of(self, other: BitSubgroup) -> bool:
        return self.p == other.p and all(b in other for b in self.basis)


def span(generators: Iterable[BitWord], p: Optional[int] = None) -> BitSubgroup:
    return BitSubgroup.span(generators, p)


def solve_affine(constraints: Sequence[tuple[int, int]], p: int) -> Optional[int]:
    """Lexicographically smallest p-bit x with parity(x & row_i) = b_i, or None.

    Each row is eliminated on its lowest set bit, so a pivot bit depends
    only on higher bits.  Fixing bits from the most significant down, every
    free bit is then 0 and every pivot bit is forced, which is the minimum.
    """
    _check_width(p)
    pivots: dict[int, tuple[int, int]] = {}  # lowest set bit -> (row, rhs)
    for row, b in constraints:
        if not 0 <= row < (1 << p):
            raise ValueError(f"row {row:#x} out of range for width {p}")
        b &= 1
        while row and (row & -row) in pivots:
            prow, pb = pivots[row & -row]
            row, b = row ^ prow, b ^ pb
        if row:
            pivots[row & -row] = (row, b)
        elif b:
            return None
    x = 0
    for low in sorted(pivots, reverse=True):
        row, b = pivots[low]
        if ((x & row).bit_count() + b) & 1:
            x |= low
    return x
