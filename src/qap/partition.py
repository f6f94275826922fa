"""Rank-zero quotient-algebra partitions and their verifiers.

A partition is one array over the 4^p spinor keys, cid[key] =
(i << 1) | epsilon for the conditioned subspace W^epsilon(B_i), B_i the
i-th member of MaxBiGroup.  In each index-basis pair (index a power of
two) the half holding the pair's smallest spinor is W^1; every other pair
takes the labels the closure law forces, read in closed form from a
quadratic refinement of the commutation form omega on the coset leaders.
The cells, keyed (i, epsilon), are derived from the array where they are
read.  A partition is checked once, at build time, by one report: first
that every key lies in a cell, the center in W^1(B_0) and every other
cell at its size, then the closure law [W^e(B), W^s(B')] in
W^(e+s)(B sqcap B') on every anti-commuting spinor pair, by an
exhaustive numpy sweep over aligned blocks of 2^min(2p, 7) rows: within a
block each product row is an earlier row with its column halves swapped,
so one gather serves the whole block.  Index arithmetic is XOR
throughout, and the tables print from one text per key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from numbers import Integral

import numpy as np

from .bitcore import InvariantError, gf2_rank
from .spinor import Spinor, key_of, key_text, key_texts, omega
from .subalgebra import (
    CartanSubalgebra,
    MaxBiGroup,
    SpinorSet,
    all_maximal,
)

CellKey = tuple[int, int]  # (bi-subalgebra index in MaxBiGroup, epsilon)


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
        """KeyError for a spinor of another width, or a key outside 0..4^p-1."""
        key = s if isinstance(s, Integral) else key_of(s) if s.p == self.p else -1
        if not 0 <= key < self.cid.size or self.cid[key] < 0:
            raise KeyError(f"{s} lies in no cell at p={self.p}")
        return divmod(int(self.cid[key]), 2)

    def partition_fault(self) -> str | None:
        """The first partition check that fails, with one witness, or None:
        every one of the 4^p keys lies in a cell, the center in cell (0,1),
        cell (0,0) is empty and every other cell holds 2^(p-1) keys."""
        p, cid, n = self.p, self.cid, 2 << self.p
        bad = np.flatnonzero((cid < 0) | (cid >= n))
        if bad.size:
            k = int(bad[0])
            return f"{key_text(k, p)} has cell id {cid[k]}, which names no cell"
        bad = self.maxbi.keys[cid[self.maxbi.keys] != 1]
        if bad.size:
            k = int(bad[0])
            return f"center {key_text(k, p)} lies in {cell_label(divmod(int(cid[k]), 2))}"
        sizes, want = np.bincount(cid, minlength=n), np.full(n, 1 << (p - 1))
        want[:2] = 0, 1 << p
        bad = np.flatnonzero(sizes != want)
        if bad.size:
            v = int(bad[0])
            return f"{cell_label(divmod(v, 2))} holds {sizes[v]} keys, not {want[v]}"
        return None


def build_qap(c: CartanSubalgebra, verify: bool = True) -> QAPartition:
    """Label the halves of the 2^p conjugate pairs that c's cosets form.

    Pair i is the coset leaders[i] + c of MaxBiGroup, bisected into
    W = leader + B_i (row i of maxbi.comm) and W-hat = leader + (c - B_i).
    The index-basis pairs anchor the labeling: W, the half holding the
    pair's smallest spinor, is W^1.  The closure law makes f = 1 - epsilon
    a quadratic refinement of omega, f(x ^ y) = f(x) ^ f(y) ^ omega(x, y),
    and the leaders are XOR-linear, so f[i] = f[i ^ i1] ^ omega(leaders[i1],
    leaders[i ^ i1]) for i1 the lowest bit of i, and W of pair i is
    W^(1 ^ f[i]).  verify_closure then checks the partition and its labels.
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


@lru_cache(maxsize=None)
def _sweep_tables(p: int) -> tuple[np.ndarray, ...]:
    """The read-only tables of verify_closure's sweep at width p: the keys,
    unit[b, y] = omega(2^b, y), anti[j, y] = omega(j, y) for j < 2^L, and
    the x < y mask of a diagonal block."""
    n, bits = 1 << (2 * p), min(2 * p, 7)
    rows = 1 << bits
    keys = np.arange(n)
    swapped = ((keys & ((1 << p) - 1)) << p) | (keys >> p)
    unit = (swapped >> np.arange(2 * p)[:, None] & 1).astype(bool)
    anti = np.empty((rows, n), dtype=bool)  # doubled over the bits of j
    anti[0] = False
    for b in range(bits):
        np.bitwise_xor(anti[: 1 << b], unit[b], out=anti[1 << b : 2 << b])
    tables = keys, unit, anti, keys[:rows, None] < keys[:rows]
    for table in tables:
        table.setflags(write=False)
    return tables


def verify_closure(q: QAPartition, max_failures: int = 1) -> ClosureReport:
    """Check that q is a partition, then exhaustively check the quaternion
    closure law on every anti-commuting pair x < y, in row-major order.
    A partition fault is the one failure, with 0 pairs checked.

    With cid[k] = (i << 1) | eps the cell of key k, the law reads
    cid[x ^ y] == cid[x] ^ cid[y].  The conjugate-partition inclusions
    [W,C] in W-hat, [W-hat,C] in W and [W,W-hat] in C are the cell pairs
    (i,1)x(0,1), (i,0)x(0,1) and (i,1)x(i,0) of this sweep.

    Rows x = r0 ^ j (j < 2^L, r0 aligned) are taken a block at a time,
    against the columns y >= r0, a slice that XOR by j maps onto itself.
    So the product row of x ^ 2^b is the row of x with its columns
    swapped in adjacent halves of width 2^b: one gather for row r0, then
    L strided copies.  omega is bilinear, so omega(r0 ^ j, y) is
    omega(r0, y) ^ omega(j, y), each an XOR of the rows omega(2^b, y),
    which is bit b of swap(y) = (zeta_y << p) | alpha_y.
    """
    if fault := q.partition_fault():
        return ClosureReport(False, 0, [fault])
    p, cid, max_failures = q.p, q.cid, max(max_failures, 1)
    failures: list[str] = []
    n, bits = cid.size, min(2 * p, 7)
    rows = 1 << bits
    keys, unit, anti, upper = _sweep_tables(p)
    flat = [np.empty(rows * n, dtype=t) for t in (cid.dtype, bool, bool)]
    checked = 0
    for r0 in range(0, n, rows):
        m = n - r0
        prod, a, bad = (buf[: rows * m].reshape(rows, m) for buf in flat)
        prod[0] = cid[keys[r0:] ^ r0]
        for b in range(bits):
            halves = (1 << b, m >> (b + 1), 2, 1 << b)
            prod[1 << b : 2 << b].reshape(halves)[...] = prod[: 1 << b].reshape(halves)[:, :, ::-1]
        high = [b for b in range(bits, 2 * p) if r0 >> b & 1]
        np.bitwise_xor(anti[:, r0:], np.logical_xor.reduce(unit[high, r0:]), out=a)
        a[:, :rows] &= upper  # the diagonal block keeps y > x
        prod ^= cid[r0:]
        np.not_equal(prod, cid[r0 : r0 + rows, None], out=bad)
        bad &= a
        if bad.any():
            for h in np.flatnonzero(bad)[: max_failures - len(failures)]:
                pair = (r0 + int(h) // m, r0 + int(h) % m)
                (ka, x), (kb, y) = sorted((divmod(int(cid[k]), 2), k) for k in pair)
                failures.append(
                    f"[{cell_label(ka)}, {cell_label(kb)}]: {key_text(x, p)} x "
                    f"{key_text(y, p)} -> {key_text(x ^ y, p)} not in "
                    f"{cell_label((ka[0] ^ kb[0], ka[1] ^ kb[1]))}"
                )
            if len(failures) >= max_failures:
                checked += int(np.count_nonzero(a.ravel()[: h + 1]))
                return ClosureReport(False, checked, failures)
        checked += int(np.count_nonzero(a))
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
    if not 0 < l < 1 << q.p or e not in (0, 1):
        raise KeyError(f"no such cell {cell}")
    regular = tuple(
        ((m, s), (m ^ l, s ^ e)) for m in range(1, 1 << q.p) if m < m ^ l for s in (0, 1)
    )
    return CoQuotientView(
        center=cell, degrade=(cell, (0, 0)), irregular=((0, 1), (l, 1 - e)), regular=regular
    )


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


def render_table(q: QAPartition) -> str:
    """Text table: center header, one row per conjugate pair, then the
    complete maximal-bi-subalgebra list, read from the MaxBiGroup arrays."""
    texts, g = key_texts(q.p, hermitian_norm=True), q.maxbi

    def row(keys) -> str:
        return ", ".join(texts[k] for k in sorted(keys))

    lines = [q.cartan.label, "  " + row(g.keys.tolist()), ""]
    n = 1 << q.p
    for i in range(1, n):
        lines.append(f"B_{i} | W: {row(q.cells[(i, 1)].keys)} | Ŵ: {row(q.cells[(i, 0)].keys)}")
    lines.append("")
    for i in range(1, n):
        lines.append(f"B_{i} = {{ {row(g.keys[g.comm[i]].tolist())} }}")
    return "\n".join(lines) + "\n"


def qap_to_json(q: QAPartition) -> str:
    texts, g = key_texts(q.p), q.maxbi
    payload = {
        "label": q.cartan.label,
        "p": q.p,
        "kind": q.cartan.kind,
        "cells": {
            cell_label(key): [texts[k] for k in sorted(cell.keys)]
            for key, cell in sorted(q.cells.items())
        },
        "maximal": {
            f"B:{i}": [texts[k] for k in g.keys[row].tolist()] for i, row in enumerate(g.comm)
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)
