"""Rank-zero quotient-algebra partitions and their verifiers.

A partition is one array over the 4^p spinor keys, cid[key] =
(i << 1) | epsilon for the conditioned subspace W^epsilon(B_i), B_i the
i-th member of MaxBiGroup.  In each index-basis pair (index a power of
two) the half holding the pair's smallest spinor is W^1; every other pair
takes the labels the closure law forces, read in closed form from a
quadratic refinement of the commutation form omega on the coset leaders.
The cells, keyed (i, epsilon), are derived from the array where they are
read.  The closure law [W^e(B), W^s(B')] in W^(e+s)(B sqcap B') is
checked at build time on every anti-commuting spinor pair, by one
exhaustive numpy sweep over the array; index arithmetic is XOR throughout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bitcore import InvariantError, gf2_rank
from .spinor import Spinor, key_of, key_text, omega
from .subalgebra import (
    BiSubalgebra,
    CartanSubalgebra,
    MaxBiGroup,
    SpinorSet,
    all_maximal,
    is_cartan,
)

CellKey = tuple[int, int]  # (bi-subalgebra index in MaxBiGroup, epsilon)


@dataclass(frozen=True)
class ConjugatePair:
    """The subspace commuting with one maximal bi-subalgebra, bisected."""

    determinant: BiSubalgebra
    w: SpinorSet
    w_hat: SpinorSet

    @property
    def is_degrade(self) -> bool:
        return len(self.w_hat) == 0


def conjugate_pair_of(c: CartanSubalgebra, b: BiSubalgebra) -> ConjugatePair:
    """The coset of c whose commutant in c is b, bisected by b; the half
    holding the coset's smallest spinor is returned as w."""
    if b.parent != c:
        raise ValueError("bi-subalgebra does not belong to this Cartan subalgebra")
    if not b.is_maximal():
        raise ValueError("not a maximal bi-subalgebra")
    q = build_qap(c, verify=False)
    i = q.maxbi.index_of(b)
    e = int(q.cid[q.maxbi.leaders[i]]) & 1
    return ConjugatePair(b, q.cells[(i, e)], q.cells[(i, e ^ 1)])


class QAPartition:
    """The 2^(p+1) conditioned subspaces generated by a Cartan subalgebra,
    held as cid[key] = (i << 1) | eps for cell (i, eps) of each of the 4^p
    keys; -1 marks a key in no cell.  The array is made read-only, since
    the cells are derived from it once."""

    __slots__ = ("cartan", "maxbi", "cid", "__dict__")

    def __init__(self, cartan: CartanSubalgebra, maxbi: MaxBiGroup, cid: np.ndarray):
        self.cartan = cartan
        self.maxbi = maxbi
        self.cid = cid
        cid.flags.writeable = False

    @property
    def p(self) -> int:
        return self.cartan.p

    @cached_property
    def cells(self) -> dict[CellKey, SpinorSet]:
        """Every cell (i, eps), in order, sliced from one stable argsort."""
        n = 2 << self.p
        order = np.argsort(self.cid, kind="stable")
        bounds = np.searchsorted(self.cid[order], np.arange(n + 1)).tolist()
        keys = order.tolist()
        return {divmod(v, 2): SpinorSet(self.p, keys[bounds[v] : bounds[v + 1]]) for v in range(n)}

    def cell_of(self, s: Spinor | int) -> CellKey:
        v = int(self.cid[s if isinstance(s, int) else key_of(s)])
        if v < 0:
            raise KeyError(f"key {s} lies in no cell")
        return divmod(v, 2)

    def pair(self, i: int) -> ConjugatePair:
        return ConjugatePair(self.maxbi.members[i], self.cells[(i, 1)], self.cells[(i, 0)])

    def is_partition(self) -> bool:
        """Cell (0,1) is the center, cell (0,0) is empty, every other cell
        holds 2^(p-1) keys, and every one of the 4^p keys lies in a cell."""
        p, cid = self.p, self.cid
        if cid.min() < 0 or cid.max() >= 2 << p:
            return False
        sizes = np.bincount(cid, minlength=2 << p)
        ok = sizes[0] == 0 and (sizes[2:] == 1 << (p - 1)).all()
        return bool(ok and (cid[self.maxbi.keys] == 1).all())


def build_qap(c: CartanSubalgebra, verify: bool = True) -> QAPartition:
    """Label the halves of the 2^p conjugate pairs that c's cosets form.

    Pair i is the coset leaders[i] + c of MaxBiGroup, bisected into
    W = leader + B_i (row i of maxbi.comm) and W-hat = leader + (c - B_i).
    The index-basis pairs anchor the labeling: W, the half holding the
    pair's smallest spinor, is W^1.  The closure law makes f = 1 - epsilon
    a quadratic refinement of omega, f(x ^ y) = f(x) ^ f(y) ^ omega(x, y),
    and the leaders are XOR-linear, so f[i] = f[i ^ i1] ^ omega(leaders[i1],
    leaders[i ^ i1]) for i1 the lowest bit of i, and W of pair i is
    W^(1 ^ f[i]).  A full verification sweep then asserts the labels.
    """
    maxbi = all_maximal(c)
    p, leaders = c.p, maxbi.leaders
    f = [0] * (1 << p)
    for i in range(1, 1 << p):
        i1 = i & -i
        f[i] = f[i ^ i1] ^ omega(leaders[i1], leaders[i ^ i1], p)
    index = np.arange(1 << p, dtype=np.int16)[:, None]
    eps = np.array(f, dtype=np.int16)[:, None] ^ maxbi.comm
    cid = np.empty(1 << (2 * p), dtype=np.int16)
    cid[np.array(leaders)[:, None] ^ maxbi.keys[None, :]] = (index << 1) | eps
    q = QAPartition(c, maxbi, cid)
    if verify:
        report = verify_closure(q)
        if not report.ok:
            raise InvariantError(f"cell labeling of {c.label} breaks closure: {report.failures[0]}")
    return q


@dataclass
class ClosureReport:
    ok: bool
    checked_pairs: int
    failures: list[str] = field(default_factory=list)

    def __str__(self) -> str:
        status = "pass" if self.ok else "FAIL"
        lines = [f"closure {status}: {self.checked_pairs} anti-commuting pairs checked"]
        lines += self.failures[:5]
        return "\n".join(lines)


def verify_closure(q: QAPartition, max_failures: int = 1) -> ClosureReport:
    """Exhaustively check the quaternion closure law on every anti-commuting
    pair x < y of covered spinors, in blocks of 32 rows of one array sweep.

    With cid[k] = (i << 1) | eps the cell of key k, the law reads
    cid[x ^ y] == cid[x] ^ cid[y].  The conjugate-partition inclusions
    [W,C] in W-hat, [W-hat,C] in W and [W,W-hat] in C are the cell pairs
    (i,1)x(0,1), (i,0)x(0,1) and (i,1)x(i,0) of this sweep.  An uncovered
    key reads -1, which matches no product of two cell ids.
    """
    p, cid, max_failures = q.p, q.cid, max(max_failures, 1)
    failures: list[str] = []
    if cid[0] != 1:  # key 0 commutes with everything, so no pair below reaches it
        where = cell_label(divmod(int(cid[0]), 2)) if cid[0] >= 0 else "no cell"
        failures.append(f"identity {key_text(0, p)} lies in {where}, not in B:0/eps:1")
        if max_failures == 1:
            return ClosureReport(False, 0, failures)
    keys = np.flatnonzero(cid >= 0).astype(np.min_scalar_type(cid.size))
    checked = 0
    for r0 in range(0, len(keys), 32):
        xs, ys = keys[r0 : r0 + 32, None], keys[r0 + 1 :]
        anti = (omega(xs, ys, p) == 1) & (xs < ys)
        bad = np.flatnonzero(anti & (cid[xs ^ ys] != (cid[xs] ^ cid[ys])))
        for h in bad[: max_failures - len(failures)]:
            pair = (int(xs[h // ys.size, 0]), int(ys[h % ys.size]))
            (ka, x), (kb, y) = sorted((divmod(int(cid[k]), 2), k) for k in pair)
            failures.append(
                f"[{cell_label(ka)}, {cell_label(kb)}]: {key_text(x, p)} x "
                f"{key_text(y, p)} -> {key_text(x ^ y, p)} not in "
                f"{cell_label((ka[0] ^ kb[0], ka[1] ^ kb[1]))}"
            )
        if len(failures) >= max_failures:
            checked += int(np.count_nonzero(anti.ravel()[: h + 1]))
            return ClosureReport(False, checked, failures)
        checked += int(np.count_nonzero(anti))
    return ClosureReport(not failures, checked, failures)


def cell_label(key: CellKey) -> str:
    return f"B:{key[0]}/eps:{key[1]}"


@dataclass(frozen=True)
class CoQuotientView:
    """The same partition re-paired around a conditioned subspace."""

    center: CellKey
    degrade: tuple[CellKey, CellKey]  # the new center pairs with the empty cell
    irregular: tuple[CellKey, CellKey]
    regular: tuple[tuple[CellKey, CellKey], ...]


def coquotient_view(q: QAPartition, cell: CellKey) -> CoQuotientView:
    """Re-pair all cells around a non-degrade conditioned subspace: the
    partner of (m, s) under center (l, e) is (m^l, s^e).  Each regular pair
    is listed once, led by its cell of smaller index, in ascending order."""
    l, e = cell
    if l == 0:
        raise ValueError("the center of a co-quotient view must be non-degrade")
    if cell not in q.cells:
        raise KeyError(f"no such cell {cell}")
    regular = tuple(
        ((m, s), (m ^ l, s ^ e)) for m in range(1, 1 << q.p) if m < m ^ l for s in (0, 1)
    )
    return CoQuotientView(
        center=cell, degrade=(cell, (0, 0)), irregular=((0, 1), (l, 1 - e)), regular=regular
    )


def split_by_commutation(w1: SpinorSet, w2: SpinorSet) -> tuple[SpinorSet, SpinorSet]:
    """Split w1 into the two sub-cosets singled out by w2.

    The pairwise bi-additives of w2 form the determining bi-subalgebra
    B_2; w1 splits by the coset rule into {s : s0+s in B_2} (s0 the
    smallest member, returned first) and the rest.  Every spinor of w2
    then commutes with one sub-coset entirely and anti-commutes with the
    other; that uniformity is validated before returning.
    """
    p = w1.p
    if not w1.keys or not w2.keys:
        raise ValueError("both inputs must be non-empty")
    b2 = {x ^ y for x in w2.keys for y in w2.keys}
    s0 = min(w1.keys)
    aligned = frozenset(k for k in w1.keys if (s0 ^ k) in b2)
    rest = w1.keys - aligned
    for y in w2.keys:
        for half in (aligned, rest):
            flags = {omega(y, x, p) for x in half}
            if len(flags) > 1:
                raise ValueError(
                    f"{key_text(y, p)} relates non-uniformly to a sub-coset; "
                    "inputs are not conditioned subspaces of one partition"
                )
    return SpinorSet(p, aligned), SpinorSet(p, rest)


def union_is_cartan(b: BiSubalgebra, w: SpinorSet) -> CartanSubalgebra:
    """Validate that b u w is a Cartan subalgebra and return it."""
    merged = b.elements | w
    if not is_cartan(merged):
        raise ValueError("the union is not a Cartan subalgebra")
    return CartanSubalgebra(merged, _trusted=True)


@dataclass(frozen=True)
class DecompositionSequence:
    """A center subalgebra plus p conditioned subspaces of its partition,
    one per member of an index basis of the maximal-bi-subalgebra group."""

    qap: QAPartition
    step_keys: tuple[CellKey, ...]

    def __post_init__(self) -> None:
        p = self.qap.p
        if len(self.step_keys) != p:
            raise ValueError(f"need exactly {p} steps")
        idx = [i for i, _ in self.step_keys]
        if 0 in idx:
            raise ValueError("steps must be non-degrade conditioned subspaces")
        if len(set(idx)) != p:
            raise ValueError("step determinants must be distinct")
        if gf2_rank(idx) != p:
            raise ValueError("step determinants must generate the whole group")

    @property
    def center(self) -> CartanSubalgebra:
        return self.qap.cartan

    @property
    def steps(self) -> list[SpinorSet]:
        return [self.qap.cells[k] for k in self.step_keys]


# ---------------------------------------------------------------------------
# table emission


def _render_cell(cell: SpinorSet) -> str:
    return ", ".join(key_text(k, cell.p, hermitian_norm=True) for k in sorted(cell.keys))


def render_table(q: QAPartition) -> str:
    """Text table: center header, one row per conjugate pair, then the
    complete maximal-bi-subalgebra list."""
    lines = [q.cartan.label, "  " + _render_cell(q.cartan.elements), ""]
    n = 1 << q.p
    for i in range(1, n):
        w = _render_cell(q.cells[(i, 1)])
        w_hat = _render_cell(q.cells[(i, 0)])
        lines.append(f"B_{i} | W: {w} | Ŵ: {w_hat}")
    lines.append("")
    for i in range(1, n):
        b = _render_cell(q.maxbi.members[i].elements)
        lines.append(f"B_{i} = {{ {b} }}")
    return "\n".join(lines) + "\n"


def qap_to_json(q: QAPartition) -> str:
    payload = {
        "label": q.cartan.label,
        "p": q.p,
        "kind": q.cartan.kind,
        "cells": {
            cell_label(key): [key_text(k, q.p) for k in sorted(cell.keys)]
            for key, cell in sorted(q.cells.items())
        },
        "maximal": {
            f"B:{i}": [key_text(k, q.p) for k in sorted(q.maxbi.members[i].elements.keys)]
            for i in range(1 << q.p)
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)
