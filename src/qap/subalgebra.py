"""Cartan subalgebras of every kind, bi-subalgebras, and the group G(C).

Element sets are held as frozensets of packed integer keys (see spinor);
numeric order on keys is the canonical (alpha, zeta) order and bi-addition
is plain XOR on keys.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .bitcore import (
    BitSubgroup,
    BitWord,
    InvariantError,
    gf2_echelon,
    gf2_nullspace,
    gf2_reduce,
    gf2_span,
    solve_affine,
)
from .spinor import Spinor, commutes, key_of, key_product, omega, pack, spinor_of_key, swap_key


class SpinorSet:
    """Canonically ordered, duplicate-free set of spinors of one width."""

    __slots__ = ("p", "keys")

    def __init__(self, p: int, keys: Iterable[int] = ()):
        self.p = p
        self.keys = frozenset(keys)

    @classmethod
    def from_spinors(cls, spinors: Iterable[Spinor]) -> "SpinorSet":
        spinors = list(spinors)
        if not spinors:
            raise ValueError("cannot infer width from an empty spinor list")
        p = spinors[0].p
        return cls(p, (key_of(s) for s in spinors))

    @classmethod
    def parse(cls, texts: Iterable[str]) -> "SpinorSet":
        return cls.from_spinors(Spinor.parse(t) for t in texts)

    def spinors(self) -> list[Spinor]:
        return [spinor_of_key(k, self.p) for k in sorted(self.keys)]

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[Spinor]:
        return iter(self.spinors())

    def __contains__(self, s: Spinor | int) -> bool:
        return (s if isinstance(s, int) else key_of(s)) in self.keys

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpinorSet):
            return NotImplemented
        return self.p == other.p and self.keys == other.keys

    def __hash__(self) -> int:
        return hash((self.p, self.keys))

    def __or__(self, other: "SpinorSet") -> "SpinorSet":
        return SpinorSet(self.p, self.keys | other.keys)

    def __and__(self, other: "SpinorSet") -> "SpinorSet":
        return SpinorSet(self.p, self.keys & other.keys)

    def __sub__(self, other: "SpinorSet") -> "SpinorSet":
        return SpinorSet(self.p, self.keys - other.keys)

    def __repr__(self) -> str:
        return f"SpinorSet(p={self.p}, {{{', '.join(str(s) for s in self.spinors())}}})"


def _span_keys(gen_keys: Iterable[int]) -> frozenset[int]:
    return frozenset(gf2_span(gf2_echelon(gen_keys)))


def is_cartan(s: SpinorSet, scan: Optional[bool] = None) -> bool:
    """Check the Cartan conditions on a raw spinor set.

    Maximality is scanned exhaustively over all 4^p spinors for p <= 4
    (or when forced); for larger p it follows from the rank argument: a
    bi-add-closed pairwise-commuting set of 2^p elements is a maximal
    isotropic subgroup, hence maximal abelian.
    """
    p = s.p
    if len(s) != (1 << p) or 0 not in s.keys:
        return False
    basis = gf2_echelon(s.keys)
    if len(basis) != p or _span_keys(basis) != s.keys:
        return False
    for k1, k2 in itertools.combinations(basis, 2):
        if omega(k1, k2, p):
            return False
    if scan is None:
        scan = p <= 4
    if scan:
        for x in range(1 << (2 * p)):
            if x in s.keys:
                continue
            if not any(omega(x, b, p) for b in basis):
                return False
    return True


class CartanSubalgebra:
    """A maximal abelian subalgebra held as its canonical element set."""

    __slots__ = ("p", "elements", "__dict__")

    def __init__(self, elements: SpinorSet, _trusted: bool = False):
        if not _trusted and not is_cartan(elements):
            raise ValueError("element set is not a Cartan subalgebra")
        self.p = elements.p
        self.elements = elements

    # -- constructors ------------------------------------------------------

    @classmethod
    def intrinsic(cls, p: int) -> "CartanSubalgebra":
        """All diagonal generators {S[nu|0...0]}; the 0th kind."""
        return cls(SpinorSet(p, range(1 << p)), _trusted=True)

    @classmethod
    def from_generators(cls, gens: Sequence[Spinor]) -> "CartanSubalgebra":
        """The unique Cartan subalgebra spanned by commuting generators
        with independent, nonzero binary partitionings."""
        if not gens:
            raise ValueError("need at least one generator (use intrinsic for kind 0)")
        p = gens[0].p
        alpha_rows = [g.alpha.bits for g in gens]
        if any(a == 0 for a in alpha_rows):
            raise ValueError("generator binary partitionings must be nonzero")
        if len(gf2_echelon(alpha_rows)) != len(gens):
            raise ValueError("generator binary partitionings must be independent")
        for g, h in itertools.combinations(gens, 2):
            if not commutes(g, h):
                raise ValueError(f"generators {g} and {h} do not commute")
        kernel = gf2_nullspace(alpha_rows, p)  # diagonal phases
        gen_keys = [key_of(g) for g in gens] + [pack(z, 0, p) for z in kernel]
        return cls(SpinorSet(p, _span_keys(gen_keys)), _trusted=True)

    # -- cached structure --------------------------------------------------

    @cached_property
    def basis_keys(self) -> tuple[int, ...]:
        """Fully reduced echelon basis of the element keys, descending: the
        generator keys, then the basis of the diagonal phase group."""
        return tuple(gf2_echelon(self.elements.keys))

    @cached_property
    def generator_keys(self) -> tuple[int, ...]:
        """One key per alpha-basis word, ascending.  The alpha parts form
        the reduced echelon alpha basis; each phase, reduced against the
        diagonal rows, is the lex-smallest of its block."""
        return tuple(r for r in reversed(self.basis_keys) if r >> self.p)

    @cached_property
    def alpha_group(self) -> BitSubgroup:
        p = self.p
        return BitSubgroup(p, tuple(BitWord(g >> p, p) for g in self.generator_keys))

    @property
    def kind(self) -> int:
        return len(self.generator_keys)

    @cached_property
    def diag_phase_group(self) -> BitSubgroup:
        p = self.p
        rows = (r for r in reversed(self.basis_keys) if not r >> p)
        return BitSubgroup(p, tuple(BitWord(r, p) for r in rows))

    def phase_block(self, alpha_bits: int) -> list[int]:
        """Sorted phase strings attached to one binary partitioning."""
        p = self.p
        mask = (1 << p) - 1
        return sorted(k & mask for k in self.elements.keys if k >> p == alpha_bits)

    @cached_property
    def generators(self) -> tuple[Spinor, ...]:
        """One spinor per alpha-basis word (ascending), lex-smallest phase."""
        return tuple(spinor_of_key(g, self.p) for g in self.generator_keys)

    @cached_property
    def parity_table(self) -> tuple[tuple[int, ...], ...]:
        """Entry (i, j) is the parity of zeta_i . alpha_j over the generators,
        the sign of the product S_j S_i."""
        p, gens = self.p, self.generator_keys
        table = tuple(tuple(key_product(gj, gi, p)[0] >> 1 for gj in gens) for gi in gens)
        for i in range(len(gens)):
            for j in range(i):
                if table[i][j] != table[j][i]:
                    raise InvariantError("parity table must be symmetric")
        return table

    @property
    def label(self) -> str:
        return format_label(self)

    # -- protocol ----------------------------------------------------------

    def __contains__(self, s: Spinor | int) -> bool:
        return s in self.elements

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CartanSubalgebra):
            return NotImplemented
        return self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        return f"<CartanSubalgebra {self.label}>"


def intrinsic_cartan(p: int) -> CartanSubalgebra:
    return CartanSubalgebra.intrinsic(p)


def build_kth_kind(gens: Sequence[Spinor]) -> CartanSubalgebra:
    return CartanSubalgebra.from_generators(gens)


def dual_map(c: CartanSubalgebra) -> CartanSubalgebra:
    """Swap phase and binary-partitioning strings on every element."""
    swapped = SpinorSet(c.p, (swap_key(k, c.p) for k in c.elements.keys))
    return CartanSubalgebra(swapped)


# ---------------------------------------------------------------------------
# maximal bi-subalgebras


class BiSubalgebra:
    """Bi-add-closed subset of a Cartan subalgebra."""

    __slots__ = ("elements", "parent")

    def __init__(self, elements: SpinorSet, parent: CartanSubalgebra):
        if not elements.keys <= parent.elements.keys:
            raise ValueError("bi-subalgebra must be a subset of its parent")
        if _span_keys(elements.keys) != elements.keys:
            raise ValueError("set is not closed under bi-addition")
        self.elements = elements
        self.parent = parent

    @property
    def p(self) -> int:
        return self.elements.p

    @property
    def is_whole(self) -> bool:
        return self.elements == self.parent.elements

    @property
    def flavor(self) -> str:
        if self.is_whole:
            return "whole"
        alphas = {k >> self.p for k in self.elements.keys}
        parent_alphas = {k >> self.p for k in self.parent.elements.keys}
        return "phase_type" if alphas == parent_alphas else "bit_type"

    @property
    def complement(self) -> SpinorSet:
        return self.parent.elements - self.elements

    def is_maximal(self) -> bool:
        if self.is_whole:
            return True
        if len(self.elements) * 2 != len(self.parent.elements):
            return False
        comp = self.complement.keys
        return all((a ^ b) in self.elements.keys for a in comp for b in comp)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BiSubalgebra):
            return NotImplemented
        return self.elements == other.elements and self.parent == other.parent

    def __hash__(self) -> int:
        return hash((self.elements, self.parent.elements))

    def __repr__(self) -> str:
        names = ", ".join(str(s) for s in self.elements.spinors())
        return f"<BiSubalgebra[{self.flavor}] {{{names}}}>"


def bit_type_maximal(c: CartanSubalgebra, sub: BitSubgroup) -> BiSubalgebra:
    """Elements of c whose binary partitioning lies in a maximal subgroup."""
    if c.kind == 0:
        raise ValueError("a 0th-kind subalgebra has no bit-type maximal bi-subalgebra")
    if sub.rank != c.kind - 1 or not sub.is_subgroup_of(c.alpha_group):
        raise ValueError("sub must be a maximal subgroup of the alpha group")
    keep = frozenset(k for k in c.elements.keys if BitWord(k >> c.p, c.p) in sub)
    return BiSubalgebra(SpinorSet(c.p, keep), c)


def phase_type_generator_keys(
    c: CartanSubalgebra, kernel_sub: BitSubgroup, coset_choice: int
) -> list[int]:
    """The p-1 generating keys of a phase-type maximal bi-subalgebra:
    the kernel's diagonal spinors plus one representative per canonical
    generator block, shifted into the chosen kernel-subcoset."""
    p = c.p
    diag = c.diag_phase_group
    if kernel_sub.rank != diag.rank - 1 or not kernel_sub.is_subgroup_of(diag):
        raise ValueError("kernel_sub must be a maximal subgroup of the diagonal phases")
    k = c.kind
    if not 0 <= coset_choice < (1 << k):
        raise ValueError(f"coset_choice must be a {k}-bit mask")
    kernel_rows = [b.bits for b in reversed(kernel_sub.basis)]
    # any diagonal phase outside the kernel flips a subcoset choice
    delta = next(z for z in diag.member_bits() if gf2_reduce(z, kernel_rows) != 0)
    gen_keys = [pack(b.bits, 0, p) for b in kernel_sub.basis]
    for j, g in enumerate(c.generator_keys):
        gen_keys.append(g ^ delta if (coset_choice >> j) & 1 else g)
    return gen_keys


def phase_type_maximal(
    c: CartanSubalgebra, kernel_sub: BitSubgroup, coset_choice: int
) -> BiSubalgebra:
    """Bisect c through a maximal subgroup of the diagonal phase strings.

    coset_choice bit j-1 picks, for the j-th canonical generator, which of
    the two kernel-subcosets of its phase block enters the generating
    union (0 = the half holding the block's smallest phase).
    """
    gen_keys = phase_type_generator_keys(c, kernel_sub, coset_choice)
    elements = SpinorSet(c.p, _span_keys(gen_keys))
    if len(elements) != 1 << (c.p - 1):
        raise InvariantError(f"a bi-subalgebra of {c.label} must hold 2^(p-1) elements")
    return BiSubalgebra(elements, c)


def sqcap(b1: BiSubalgebra, b2: BiSubalgebra) -> BiSubalgebra:
    """(b1 n b2) u (b1^c n b2^c), complements inside the common parent."""
    if b1.parent != b2.parent:
        raise ValueError("sqcap needs a common parent Cartan subalgebra")
    parent = b1.parent.elements.keys
    inner = b1.elements.keys & b2.elements.keys
    outer = (parent - b1.elements.keys) & (parent - b2.elements.keys)
    return BiSubalgebra(SpinorSet(b1.p, inner | outer), b1.parent)


def coset_leaders(c: CartanSubalgebra) -> list[int]:
    """The smallest key of each of the 2^p cosets of c, by member index.

    A leader has every pivot bit of c's reduced echelon basis clear, and
    leader i spells i in its other p bits, read in ascending order; so
    leaders[i] ^ leaders[j] == leaders[i ^ j] and leaders[0] == 0.
    """
    pivots = 0
    for row in c.basis_keys:
        pivots |= 1 << (row.bit_length() - 1)
    return gf2_span(1 << bit for bit in range(2 * c.p) if not (pivots >> bit) & 1)


class MaxBiGroup:
    """The 2^p maximal bi-subalgebras of a Cartan subalgebra under sqcap,
    read off the cosets of the subalgebra.

    A Cartan subalgebra c is a maximal isotropic subgroup of the 4^p
    spinor keys, so its 2^p cosets v + c match its 2^p maximal
    bi-subalgebras one to one: B_v = {x in c : [v, x] = 0}, and v + c is
    B_v's conjugate pair.  Member i is B_v for v = leaders[i], the
    smallest key of its coset (see coset_leaders); comm[i, j] is True
    where leaders[i] commutes with keys[j], c's keys ascending, so row i
    spells B_i.  Since the leaders are XOR-linear in i and
    B_u sqcap B_v = B_(u+v), index(b1 sqcap b2) = index(b1) ^ index(b2),
    with index 0 the parent itself.  (For the intrinsic subalgebra this
    reproduces B_alpha -> alpha.)
    """

    __slots__ = ("parent", "members", "leaders", "keys", "comm", "_index_by_keys")

    def __init__(self, parent, members, leaders, keys, comm):
        self.parent = parent
        self.members = members
        self.leaders = leaders
        self.keys = keys
        self.comm = comm
        self._index_by_keys = {b.elements.keys: i for i, b in enumerate(members)}

    @classmethod
    def build(cls, c: CartanSubalgebra) -> "MaxBiGroup":
        p = c.p
        leaders = coset_leaders(c)
        keys = np.array(sorted(c.elements.keys))
        comm = omega(np.array(leaders)[:, None], keys[None, :], p) == 0
        if (comm[1:].sum(axis=1) != 1 << (p - 1)).any():
            raise InvariantError(f"a bi-subalgebra of {c.label} must hold 2^(p-1) elements")
        members = [BiSubalgebra(SpinorSet(p, keys[row].tolist()), c) for row in comm]
        return cls(c, members, leaders, keys, comm)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[BiSubalgebra]:
        return iter(self.members)

    def index_of(self, b: BiSubalgebra) -> int:
        return self._index_by_keys[b.elements.keys]


def all_maximal(c: CartanSubalgebra) -> MaxBiGroup:
    return MaxBiGroup.build(c)


def commuting_bisubalgebra(s: Spinor, c: CartanSubalgebra) -> BiSubalgebra:
    """The unique maximal bi-subalgebra of c commuting with s: the kernel
    of the commutation form with s on c."""
    x = key_of(s)
    return BiSubalgebra(SpinorSet(c.p, (k for k in c.elements.keys if not omega(x, k, c.p))), c)


# ---------------------------------------------------------------------------
# label grammar: C^{parities}_{[a_1,...,a_k]}


class LabelError(ValueError):
    """Malformed Cartan label; carries the failing character position."""

    def __init__(self, text: str, position: int, reason: str):
        self.position = position
        super().__init__(f"bad label {text!r} at position {position}: {reason}")


def format_label(c: CartanSubalgebra) -> str:
    p, k = c.p, c.kind
    if k == 0:
        return f"C_[{'0' * p}]"
    table = c.parity_table
    parities = "".join(
        str(table[r][s]) for r in range(k) for s in range(r, k)
    )
    alphas = ",".join(format(g >> p, f"0{p}b") for g in c.generator_keys)
    return f"C^{{{parities}}}_{{[{alphas}]}}"


def _scan_label(text: str) -> tuple[Optional[str], str]:
    """Split a label into (parity superscript, alpha list body); braces are
    optional, every structural slip reports its offset."""
    pos = 0

    def expect(token: str) -> None:
        nonlocal pos
        if not text.startswith(token, pos):
            raise LabelError(text, pos, f"expected {token!r}")
        pos += len(token)

    def take_bits() -> str:
        nonlocal pos
        start = pos
        while pos < len(text) and text[pos] in "01":
            pos += 1
        if pos == start:
            raise LabelError(text, pos, "expected a binary string")
        return text[start:pos]

    expect("C")
    parities: Optional[str] = None
    if pos < len(text) and text[pos] == "^":
        pos += 1
        braced = pos < len(text) and text[pos] == "{"
        if braced:
            pos += 1
        parities = take_bits()
        if braced:
            expect("}")
    expect("_")
    braced = pos < len(text) and text[pos] == "{"
    if braced:
        pos += 1
    expect("[")
    alphas = [take_bits()]
    while pos < len(text) and text[pos] == ",":
        pos += 1
        alphas.append(take_bits())
    expect("]")
    if braced:
        expect("}")
    if pos != len(text):
        raise LabelError(text, pos, "trailing characters")
    return parities, ",".join(alphas)


def parse_label(text: str, p: Optional[int] = None) -> CartanSubalgebra:
    """Rebuild a Cartan subalgebra from its canonical label.

    The parity superscript must carry all k(k+1)/2 parities in the order
    1 <= r <= s <= k over the ascending alpha basis.
    """
    parities, alpha_part = _scan_label(text.replace(" ", ""))
    alpha_words = [BitWord.parse(a) for a in alpha_part.split(",")]
    width = alpha_words[0].p
    if any(a.p != width for a in alpha_words):
        raise ValueError(f"alpha words {alpha_part} differ in width")
    if p is not None and p != width:
        raise ValueError(f"label width {width} does not match p={p}")
    if all(a.is_zero for a in alpha_words):
        if parities:
            raise ValueError("the 0th kind carries no parity superscript")
        return CartanSubalgebra.intrinsic(width)
    if any(a.is_zero for a in alpha_words):
        raise ValueError("alpha basis words must be nonzero")
    k = len(alpha_words)
    if len(gf2_echelon(a.bits for a in alpha_words)) != k:
        raise ValueError("alpha basis words must be independent")
    if parities is None or len(parities) != k * (k + 1) // 2:
        raise ValueError(
            f"expected {k * (k + 1) // 2} parities for a {k}-th kind label, "
            f"got {parities!r}"
        )
    eps = [[0] * k for _ in range(k)]
    it = iter(parities)
    for r in range(k):
        for s in range(r, k):
            eps[r][s] = eps[s][r] = int(next(it))
    gens = []
    for i, a in enumerate(alpha_words):
        constraints = [(alpha_words[j].bits, eps[i][j]) for j in range(k)]
        z = solve_affine(constraints, width)
        if z is None:
            raise ValueError("inconsistent parity superscript")
        gens.append(Spinor(BitWord(z, width), a))
    c = CartanSubalgebra.from_generators(gens)
    return c
