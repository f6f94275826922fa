"""Cartan subalgebras of every kind, bi-subalgebras, and the group G(C).

Spinors are packed integer keys (see spinor): numeric order on keys is the
canonical (alpha, zeta) order and bi-addition is plain XOR.  A Cartan
subalgebra is held as its label basis, the p keys of its fully reduced
echelon basis, and its 2^p-key element set is spanned only where it is
read; bi-subalgebras and conditioned subspaces are frozensets of keys.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from numbers import Integral
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .bitcore import (
    BitSubgroup,
    BitWord,
    InvariantError,
    _check_width,
    gf2_echelon,
    gf2_nullspace,
    gf2_rank,
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
        for s in spinors:
            if s.p != p:
                raise ValueError(f"width mismatch: {s.p} vs {p}")
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
        return s in self.keys if isinstance(s, Integral) else s.p == self.p and key_of(s) in self.keys

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


def is_cartan(s: SpinorSet) -> bool:
    """Check the Cartan conditions on a raw spinor set: 2^p keys in
    0..4^p - 1 spanned by p commuting basis keys.  Maximality needs no scan:
    such a set is a p-dimensional isotropic subspace of the 2p-dimensional
    symplectic space, so no key outside it commutes with all of it.
    """
    p = s.p
    if not all(0 <= k < 1 << (2 * p) for k in s.keys):
        return False
    basis = gf2_echelon(s.keys)
    if len(s) != (1 << p) or len(basis) != p:  # else s is the span of basis
        return False
    return not any(omega(k1, k2, p) for k1, k2 in itertools.combinations(basis, 2))


class CartanSubalgebra:
    """A maximal abelian subalgebra held as its label basis: basis_keys, the
    fully reduced echelon basis of its keys, descending (generator keys, then
    diagonal rows), is canonical, so equality and hashing read it.  The parity
    table and the 2^p element keys are derived on first read if not given."""

    __slots__ = ("p", "basis_keys", "__dict__")

    def __init__(self, elements: SpinorSet):
        if not is_cartan(elements):
            raise ValueError("element set is not a Cartan subalgebra")
        self.p = elements.p
        self.basis_keys = tuple(gf2_echelon(elements.keys))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_basis(cls, p: int, basis: Sequence[int]) -> "CartanSubalgebra":
        """Trusted: the subalgebra spanned by its fully reduced echelon
        basis, descending."""
        c = cls.__new__(cls)
        c.p, c.basis_keys = p, tuple(basis)
        return c

    @classmethod
    def from_generators(cls, gens: Sequence[Spinor]) -> "CartanSubalgebra":
        """The unique Cartan subalgebra spanned by commuting generators
        with independent, nonzero binary partitionings."""
        if not gens:
            raise ValueError("need at least one generator (use intrinsic_cartan for kind 0)")
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
        return cls.from_basis(p, gf2_echelon(gen_keys))

    # -- label data and cached structure -----------------------------------

    def element_keys(self) -> list[int]:
        """The 2^p element keys, ascending: the span of the basis rows taken
        ascending, since the leading bit of a XOR of fully reduced rows is
        the pivot of its highest row."""
        return gf2_span(self.basis_keys[::-1])

    @cached_property
    def elements(self) -> SpinorSet:
        return SpinorSet(self.p, self.element_keys())

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
        if any(table[i][j] != table[j][i] for i in range(len(gens)) for j in range(i)):
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
        return self.p == other.p and self.basis_keys == other.basis_keys

    def __hash__(self) -> int:
        return hash((self.p, self.basis_keys))

    def __repr__(self) -> str:
        return f"<CartanSubalgebra {self.label}>"


def intrinsic_cartan(p: int) -> CartanSubalgebra:
    """All diagonal generators {S[nu|0...0]}; the 0th kind."""
    return CartanSubalgebra.from_basis(p, [1 << j for j in reversed(range(p))])


def build_kth_kind(gens: Sequence[Spinor]) -> CartanSubalgebra:
    return CartanSubalgebra.from_generators(gens)


def dual_map(c: CartanSubalgebra) -> CartanSubalgebra:
    """Swap phase and binary-partitioning strings on every element; the swap
    keeps omega, so it carries c's basis onto a basis of a subalgebra."""
    return CartanSubalgebra.from_basis(c.p, gf2_echelon(swap_key(k, c.p) for k in c.basis_keys))


# ---------------------------------------------------------------------------
# maximal bi-subalgebras


class BiSubalgebra:
    """Bi-add-closed subset of a Cartan subalgebra."""

    __slots__ = ("elements", "parent")

    def __init__(self, elements: SpinorSet, parent: CartanSubalgebra):
        if elements.p != parent.p:
            raise ValueError(f"width mismatch: {elements.p} vs {parent.p}")
        if not elements.keys <= parent.elements.keys:
            raise ValueError("bi-subalgebra must be a subset of its parent")
        if len(elements) != 1 << gf2_rank(elements.keys):  # the span of its keys holds 2^rank
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
        return "phase_type" if len(alphas) == 1 << self.parent.kind else "bit_type"

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
        return hash((self.elements, self.parent))

    def __repr__(self) -> str:
        names = ", ".join(str(s) for s in self.elements.spinors())
        return f"<BiSubalgebra[{self.flavor}] {{{names}}}>"


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
    reproduces B_alpha -> alpha.)  The group is these arrays; members,
    its BiSubalgebra objects, are built on first read.
    """

    __slots__ = ("parent", "leaders", "keys", "comm", "__dict__")

    def __init__(self, parent, leaders, keys, comm):
        self.parent = parent
        self.leaders = leaders
        self.keys = keys
        self.comm = comm

    @classmethod
    def build(cls, c: CartanSubalgebra) -> "MaxBiGroup":
        p = c.p
        leaders = coset_leaders(c)
        keys = np.array(c.element_keys())
        comm = omega(np.array(leaders)[:, None], keys[None, :], p) == 0
        if (comm[1:].sum(axis=1) != 1 << (p - 1)).any():
            raise InvariantError(f"a bi-subalgebra of {c.label} must hold 2^(p-1) elements")
        # row i spells a bi-add-closed B_i iff f_i = ~comm[i] is additive over
        # c: f_i(x ^ g) = f_i(x) ^ f_i(g) for every key x and basis key g
        basis = np.array(c.basis_keys)
        anti = ~comm
        shifted = anti[:, np.searchsorted(keys, keys[None, :] ^ basis[:, None])]
        if (shifted != anti[:, None, :] ^ anti[:, np.searchsorted(keys, basis), None]).any():
            raise InvariantError(f"a bi-subalgebra of {c.label} is not closed under bi-addition")
        return cls(c, leaders, keys, comm)

    @cached_property
    def members(self) -> list[BiSubalgebra]:
        c = self.parent
        return [BiSubalgebra(SpinorSet(c.p, self.keys[row].tolist()), c) for row in self.comm]

    def __len__(self) -> int:
        return len(self.comm)

    def __iter__(self) -> Iterator[BiSubalgebra]:
        return iter(self.members)

    def index_of(self, b: BiSubalgebra) -> int:
        """The row of comm that spells b; KeyError for a bi-subalgebra that is not a member."""
        hits = np.flatnonzero((self.comm == np.isin(self.keys, list(b.elements.keys))).all(axis=1))
        if b.parent != self.parent or not hits.size:
            raise KeyError(b)
        return int(hits[0])


def all_maximal(c: CartanSubalgebra) -> MaxBiGroup:
    return MaxBiGroup.build(c)


def commuting_bisubalgebra(s: Spinor, c: CartanSubalgebra) -> BiSubalgebra:
    """The unique maximal bi-subalgebra of c commuting with s: the kernel
    of the commutation form with s on c."""
    if s.p != c.p:
        raise ValueError(f"width mismatch: {s.p} vs {c.p}")
    x = key_of(s)
    return BiSubalgebra(SpinorSet(c.p, (k for k in c.elements.keys if not omega(x, k, c.p))), c)


# ---------------------------------------------------------------------------
# label grammar: C^{parities}_{[a_1,...,a_k]}


class LabelError(ValueError):
    """Malformed Cartan label; carries the failing character position."""

    def __init__(self, text: str, position: int, reason: str):
        self.position = position
        super().__init__(f"bad label {text!r} at position {position}: {reason}")


def label_text(p: int, superscript: str, alphas: Sequence[int]) -> str:
    """The label grammar: C_[0...0] for the 0th kind, else the parity
    superscript over the ascending alpha basis words."""
    if not alphas:
        return f"C_[{'0' * p}]"
    words = ",".join([format(a, f"0{p}b") for a in alphas])
    return f"C^{{{superscript}}}_{{[{words}]}}"


def format_label(c: CartanSubalgebra) -> str:
    """The label, its superscript the parities r <= s, row by row."""
    superscript = "".join(["".join(map(str, row[r:])) for r, row in enumerate(c.parity_table)])
    return label_text(c.p, superscript, [g >> c.p for g in c.generator_keys])


def _scan_label(text: str) -> tuple[Optional[str], list[str]]:
    """Split a label into (parity superscript, alpha words); braces are
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
    return parities, alphas


def parse_label(text: str, p: Optional[int] = None) -> CartanSubalgebra:
    """Rebuild a Cartan subalgebra from its canonical label.

    The parity superscript must carry all k(k+1)/2 parities in the order
    1 <= r <= s <= k over the ascending alpha basis.
    """
    parities, words = _scan_label(text.replace(" ", ""))
    for w in words:
        _check_width(len(w))
    width = len(words[0])
    if any(len(w) != width for w in words):
        raise ValueError(f"alpha words {','.join(words)} differ in width")
    if p is not None and p != width:
        raise ValueError(f"label width {width} does not match p={p}")
    alphas = [int(w, 2) for w in words]
    if alphas == [0]:
        if parities:
            raise ValueError("the 0th kind carries no parity superscript")
        return intrinsic_cartan(width)
    if 0 in alphas:
        raise ValueError("alpha basis words must be nonzero")
    k = len(alphas)
    if len(gf2_echelon(alphas)) != k:
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
    # generator i has zeta_i . alpha_j = eps[i][j]; eps is symmetric, so the
    # generators commute, and the alphas are independent, so each solves
    gens = [pack(solve_affine(list(zip(alphas, row)), width), a, width)
            for a, row in zip(alphas, eps)]
    return CartanSubalgebra.from_basis(width, gf2_echelon(gens + gf2_nullspace(alphas, width)))
