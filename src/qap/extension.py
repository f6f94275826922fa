"""Every Cartan subalgebra of su(2^p), enumerated from its label
C^{eps}_{[a_1...a_k]}: a reduced echelon alpha basis plus a symmetric
parity matrix, walked directly with no search and no dedupe.  Each member
keeps the basis and parity table its walk produced.  The local lift,
classification and JSONL export run a shell at a time on its (N, p) array
of basis keys: the lift is one XOR per key, and element lists are spanned
by XOR doubling.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .bitcore import InvariantError, gf2_echelon, gf2_nullspace, gf2_reduce, gf2_span
from .spinor import key_texts
from .subalgebra import CartanSubalgebra, label_text, parity_superscript
from .transform import BasicTransform, SymbolicCircuit, apply_to_cartan

ENUMERATION_MAX_P = 5


def count_kind(p: int, k: int) -> int:
    """Closed-form number of kind-k Cartan subalgebras in su(2^p)."""
    n = 1 << (k * (k + 1) // 2)
    for i in range(1, k + 1):
        n = n * ((1 << (p - i + 1)) - 1) // ((1 << i) - 1)
    return n


def count_total(p: int) -> int:
    out = 1
    for i in range(1, p + 1):
        out *= (1 << i) + 1
    return out


@dataclass
class CartanAtlas:
    """Every Cartan subalgebra of su(2^p), grouped by kind."""

    p: int
    by_kind: dict[int, list[CartanSubalgebra]]

    @property
    def total(self) -> int:
        return sum(len(v) for v in self.by_kind.values())

    def shells(self) -> Iterator[list[CartanSubalgebra]]:
        for k in sorted(self.by_kind):
            yield self.by_kind[k]

    def members(self) -> Iterator[CartanSubalgebra]:
        for shell in self.shells():
            yield from shell


def basis_array(shell: Sequence[CartanSubalgebra], p: int) -> np.ndarray:
    """The members' basis keys, descending, as the rows of an (N, p) array."""
    return np.array([c.basis_keys for c in shell], dtype=np.int64).reshape(len(shell), p)


def _shell(p: int, k: int) -> Iterator[CartanSubalgebra]:
    """The kind-k members, one per label, built from their label data.

    Alpha bases: choose pivot bits b_i, fill the non-pivot bits below each.
    Each unit u_i = 2^b_i is reduced once against the echelon basis of the
    rows' diagonal kernel.  As u_i . a_j = delta_ij and the kernel is
    orthogonal to every row, parity matrix eps gives row j the reduced
    phase XOR_i eps_ij u_i, and eps is the member's parity table.  eps is
    walked in Gray-code order, an entry and its mirror per step; the walk
    is the same for every alpha basis, so it is built once.  A
    member's basis is its generator keys, descending, then the kernel rows:
    p rows with distinct leading bits."""
    upper = [(r, s) for r in range(k) for s in range(r, k)]
    bits = [tuple(m >> j & 1 for j in range(k)) for m in range(1 << k)]
    eps = [0] * k  # row r of eps as a bit mask
    walk = []  # (the entry flipped at this step, eps after it)
    for step in range(1 << len(upper)):
        flip = upper[(step & -step).bit_length() - 1] if step else None
        if flip:
            r, s = flip
            eps[r] ^= 1 << s
            eps[s] ^= (r != s) << r
        walk.append((flip, tuple(bits[m] for m in eps)))
    for pivots in itertools.combinations(range(p), k):
        fills = [gf2_span([1 << j for j in range(b) if j not in pivots]) for b in pivots]
        for low in itertools.product(*fills):
            rows = [(1 << b) | f for b, f in zip(pivots, low)]
            kernel = gf2_echelon(gf2_nullspace(rows, p))
            units = [gf2_reduce(1 << b, kernel) for b in pivots]
            duals = [[(a & x).bit_count() & 1 for x in units + kernel] for a in rows]
            if duals != [[int(i == j) for j in range(p)] for i in range(k)]:
                raise InvariantError(f"rows {rows}: units or kernel not dual to the rows")
            phases = [0] * k
            for flip, table in walk:
                if flip:
                    r, s = flip
                    phases[r] ^= units[s]
                    if r != s:
                        phases[s] ^= units[r]
                gens = [(a << p) | z for a, z in zip(rows, phases)]
                basis = gens[::-1] + kernel
                if len({r.bit_length() for r in basis} - {0}) != p:
                    raise InvariantError(f"rows {rows}, phases {phases}: not a Cartan subalgebra")
                yield CartanSubalgebra.from_basis(p, basis, table)


def enumerate_all(p: int) -> CartanAtlas:
    """Every Cartan subalgebra of su(2^p) from its label, each shell sorted
    by ascending basis and checked against its closed-form count; the total
    is checked against the product formula and for distinct members.  The
    basis order is the element-list order: two ascending element lists
    first differ at index 2^j, j the first ascending basis row that differs."""
    if not 1 <= p <= ENUMERATION_MAX_P:
        raise ValueError(f"enumeration guarded to p <= {ENUMERATION_MAX_P}")
    by_kind: dict[int, list[CartanSubalgebra]] = {}
    seen: set[tuple[int, ...]] = set()
    for k in range(p + 1):
        shell = sorted(_shell(p, k), key=lambda c: c.basis_keys[::-1])
        if len(shell) != count_kind(p, k):
            raise InvariantError(f"shell {k}: {len(shell)} members, not {count_kind(p, k)}")
        seen.update(c.basis_keys for c in shell)
        by_kind[k] = shell
    atlas = CartanAtlas(p, by_kind)
    if atlas.total != count_total(p) or len(seen) != atlas.total:
        raise InvariantError(f"{len(seen)} distinct of {atlas.total} members, not {count_total(p)}")
    return atlas


# ---------------------------------------------------------------------------
# local equivalence


class ParityStrings(NamedTuple):
    se: str
    mu: str


def parity_strings(table: Sequence[Sequence[int]]) -> ParityStrings:
    """Self- and mutual-parity strings of a parity table over the ascending
    alpha basis: its diagonal, then its upper triangle row by row."""
    rows = ["".join(map(str, row)) for row in table]
    se = "".join([row[i] for i, row in enumerate(rows)])
    mu = "".join([row[i + 1 :] for i, row in enumerate(rows)])
    return ParityStrings(se, mu)


def mutual_parity(c: CartanSubalgebra) -> ParityStrings:
    """Self- and mutual-parity strings of a top-kind subalgebra over the
    ascending unit-vector basis."""
    if c.kind != c.p:
        raise ValueError("mutual parity is defined on the top kind; lift first")
    return parity_strings(c.parity_table)


def lift_keys(shell: Sequence[CartanSubalgebra], p: int) -> tuple[np.ndarray, np.ndarray]:
    """(units, lifted) of the local lift of every member of a shell, one
    array row per member.  units masks the words e_j off the pivots of its
    reduced alpha basis.  Each factor h[0|e_j] is the transvection
    x -> x ^ h on the keys whose zeta has bit j; the factors have zeta 0
    and commute, so the lift is x -> x ^ ((x & units) << p) on the p basis
    keys.  Gauss-Jordan on the p alpha bits gives the lifted basis, row i
    with alpha e_(p-1-i): the reduced echelon basis of a top-kind member."""
    basis = basis_array(shell, p)
    # smear each alpha (16 bits at most) below its top bit: lead ^ (lead >> 1)
    # is then the row's pivot, 0 on a diagonal row
    lead = basis >> p
    for shift in (1, 2, 4, 8):
        lead |= lead >> shift
    units = ~np.bitwise_or.reduce(lead ^ (lead >> 1), axis=1) & ((1 << p) - 1)
    lifted = basis ^ ((basis & units[:, None]) << p)
    top = np.ones(len(shell), dtype=bool)
    members = np.arange(len(shell))
    for i in range(p):
        bit = 2 * p - 1 - i
        candidates = lifted[:, i:] >> bit & 1
        top &= candidates.any(axis=1)
        pivot = i + candidates.argmax(axis=1)
        row = lifted[members, pivot]
        lifted[members, pivot] = lifted[:, i]
        lifted ^= (lifted >> bit & 1) * row[:, None]
        lifted[:, i] = row
    if not top.all():
        c = shell[int(top.argmin())]
        raise InvariantError(f"local lift of {c.label} failed to reach the top kind")
    return units, lifted


def local_lift(c: CartanSubalgebra) -> tuple[SymbolicCircuit, CartanSubalgebra]:
    """Raise a kind-k subalgebra to the top kind with single-bit-alpha
    factors, one new independent partitioning direction per factor: the
    unit words off the pivots of the reduced alpha basis, ascending."""
    p = c.p
    units, lifted = lift_keys([c], p)
    factors = (BasicTransform(1 << (p + j), p) for j in range(p) if units[0] >> j & 1)
    return SymbolicCircuit(tuple(factors)), CartanSubalgebra.from_basis(p, lifted[0].tolist())


def se_normalizer(se: str) -> SymbolicCircuit:
    """Diagonal single-bit factors flipping the marked self parities;
    se[i] belongs to the ascending basis word with value 2^i."""
    p = len(se)
    return SymbolicCircuit(tuple(BasicTransform(1 << i, p) for i in range(p) if se[i] == "1"))


def classify_local(atlas: CartanAtlas) -> dict[str, list[CartanSubalgebra]]:
    """Partition the atlas into local-equivalence classes keyed by the
    mutual-parity string of the (self-parity-normalized) local lift.  The
    lift's generator i has alpha e_i, so entry (i, j) of its parity table
    is bit j of its zeta; a shell is lifted in one batch."""
    p = atlas.p
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    mu_texts = [format(m, f"0{len(pairs)}b") if pairs else "" for m in range(1 << len(pairs))]
    index: dict[str, list[CartanSubalgebra]] = {}
    for shell in atlas.shells():
        gens = lift_keys(shell, p)[1][:, ::-1]
        mu = np.zeros(len(shell), dtype=np.int64)
        for i, j in pairs:
            mu = mu << 1 | gens[:, i] >> j & 1
        for m, c in zip(mu.tolist(), shell):
            index.setdefault(mu_texts[m], []).append(c)
    return index


def class_connector(c: CartanSubalgebra) -> tuple[SymbolicCircuit, CartanSubalgebra, str]:
    """(circuit, representative, class key): the local circuit carrying c
    onto the zero-self-parity representative of its class."""
    lift_circ, lifted = local_lift(c)
    se, mu = mutual_parity(lifted)
    norm = se_normalizer(se)
    circuit = lift_circ.then(norm)
    rep = apply_to_cartan(norm, lifted)
    rep_se, rep_mu = mutual_parity(rep)
    if rep_se != "0" * c.p or rep_mu != mu:
        raise InvariantError("self-parity normalization went wrong")
    return circuit, rep, mu


def nonlocal_connector(
    c1: CartanSubalgebra, c2: CartanSubalgebra
) -> tuple[SymbolicCircuit, CartanSubalgebra]:
    """Diagonal circuit carrying one top-kind subalgebra onto another:
    one two-bit factor per differing mutual parity (each also flips the
    two touched self parities), then single-bit self-parity fixups.
    The result is verified by conjugation before returning."""
    p = c1.p
    if c1.p != c2.p:
        raise ValueError("width mismatch")
    se1 = mutual_parity(c1).se
    se2, mu2 = mutual_parity(c2)
    flips = [0] * p
    factors = []
    for i in range(p):
        for j in range(i + 1, p):
            if c1.parity_table[i][j] != c2.parity_table[i][j]:
                factors.append(BasicTransform((1 << i) | (1 << j), p))
                flips[i] ^= 1
                flips[j] ^= 1
    for i in range(p):
        if int(se1[i]) ^ flips[i] ^ int(se2[i]):
            factors.append(BasicTransform(1 << i, p))
    circuit = SymbolicCircuit(tuple(factors))
    target = apply_to_cartan(circuit, c1)
    if target != c2:
        got = mutual_parity(target)
        raise InvariantError(
            f"connector verification failed: reached se={got.se} mu={got.mu}, "
            f"wanted se={se2} mu={mu2}"
        )
    return circuit, target


def atlas_jsonl(atlas: CartanAtlas) -> str:
    """One JSON object per subalgebra, keys sorted: label, kind, parity
    strings, canonical element list, spanned ascending from the basis."""
    texts = np.array([json.dumps(t) for t in key_texts(atlas.p)], dtype=object)
    lines: list[str] = []
    for shell in atlas.shells():
        lines += _jsonl_lines(shell, atlas.p, texts)
    return "\n".join(lines) + "\n"


def _jsonl_lines(shell: Sequence[CartanSubalgebra], p: int, texts: np.ndarray) -> list[str]:
    """The JSON lines of one shell, formatted directly in sorted-key order.
    Members at one Gray-code step share their parity table across alpha
    bases, so its strings are built once per table.  Each member holds its
    table while the shell is read, so a table's id names that table."""
    basis = basis_array(shell, p)
    spans = texts[gf2_span(basis[:, ::-1])].tolist()
    strings: dict[int, tuple[str, str, str]] = {}  # id(table) -> (se, mu, superscript)
    lines = []
    for c, elements, row in zip(shell, spans, (basis >> p).tolist()):
        table, alphas = c.parity_table, [a for a in reversed(row) if a]
        if id(table) not in strings:
            strings[id(table)] = (*parity_strings(table), parity_superscript(table))
        se, mu, sup = strings[id(table)]
        lines.append(
            f'{{"elements": [{", ".join(elements)}], "eps_mu": "{mu}", "eps_se": "{se}", '
            f'"kind": {len(alphas)}, "label": "{label_text(p, sup, alphas)}"}}'
        )
    return lines
