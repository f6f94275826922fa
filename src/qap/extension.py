"""Every Cartan subalgebra of su(2^p), enumerated from its label
C^{eps}_{[a_1...a_k]}: a reduced echelon alpha basis plus a symmetric
parity matrix, walked directly with no search and no dedupe.  Each member
keeps the basis and parity table its walk produced, and the local lift
transvects those p basis keys rather than the 2^p elements.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .bitcore import InvariantError, gf2_echelon, gf2_nullspace, gf2_reduce, gf2_span
from .spinor import key_texts
from .subalgebra import CartanSubalgebra
from .transform import BasicTransform, SymbolicCircuit, apply_to_cartan, transvect

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

    def members(self) -> Iterator[CartanSubalgebra]:
        for k in sorted(self.by_kind):
            yield from self.by_kind[k]


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
    by element list and checked against its closed-form count; the total
    is checked against the product formula and for distinct members.  Both
    read ascending bases: two ascending element lists first differ at index
    2^j, j the first ascending basis row that differs."""
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


def parity_strings(c: CartanSubalgebra) -> ParityStrings:
    """Self- and mutual-parity strings over c's ascending alpha basis: the
    diagonal of its parity table, then the upper triangle row by row."""
    table, k = c.parity_table, c.kind
    se = "".join(str(table[i][i]) for i in range(k))
    mu = "".join(str(table[i][j]) for i in range(k) for j in range(i + 1, k))
    return ParityStrings(se, mu)


def mutual_parity(c: CartanSubalgebra) -> ParityStrings:
    """Self- and mutual-parity strings of a top-kind subalgebra over the
    ascending unit-vector basis."""
    if c.kind != c.p:
        raise ValueError("mutual parity is defined on the top kind; lift first")
    return parity_strings(c)


def lift_keys(c: CartanSubalgebra) -> tuple[list[int], list[int]]:
    """(units, lifted basis) of the local lift of c.  The units are the
    words e_j off the pivots of c's reduced alpha basis, ascending.  Each
    factor h[0|e_j] is the transvection x -> x ^ h on the keys x that
    anti-commute with h, those whose zeta has bit j; it is linear, so the
    lift carries c's p basis keys, and their echelon is the lifted basis."""
    p = c.p
    pivots = {(g >> p).bit_length() - 1 for g in c.generator_keys}
    units = [j for j in range(p) if j not in pivots]
    lifted = gf2_echelon(transvect([1 << (p + j) for j in units], c.basis_keys, p))
    if not lifted[-1] >> p:  # a diagonal row sorts last
        raise InvariantError(f"local lift of {c.label} failed to reach the top kind")
    return units, lifted


def local_lift(c: CartanSubalgebra) -> tuple[SymbolicCircuit, CartanSubalgebra]:
    """Raise a kind-k subalgebra to the top kind with single-bit-alpha
    factors, one new independent partitioning direction per factor: the
    unit words off the pivots of the reduced alpha basis, ascending."""
    p = c.p
    units, lifted = lift_keys(c)
    circuit = SymbolicCircuit(tuple(BasicTransform(1 << (p + j), p) for j in units))
    return circuit, CartanSubalgebra.from_basis(p, lifted)


def se_normalizer(se: str) -> SymbolicCircuit:
    """Diagonal single-bit factors flipping the marked self parities;
    se[i] belongs to the ascending basis word with value 2^i."""
    p = len(se)
    return SymbolicCircuit(tuple(BasicTransform(1 << i, p) for i in range(p) if se[i] == "1"))


def classify_local(atlas: CartanAtlas) -> dict[str, list[CartanSubalgebra]]:
    """Partition the atlas into local-equivalence classes keyed by the
    mutual-parity string of the (self-parity-normalized) local lift.  The
    lift's generator i has alpha e_i, so entry (i, j) of its parity table
    is bit j of its zeta."""
    p = atlas.p
    index: dict[str, list[CartanSubalgebra]] = {}
    for c in atlas.members():
        gens = lift_keys(c)[1][::-1]
        mu = "".join(str(g >> j & 1) for i, g in enumerate(gens) for j in range(i + 1, p))
        index.setdefault(mu, []).append(c)
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
    """One JSON object per subalgebra: label, kind, parity strings,
    canonical element list, spanned ascending from the basis."""
    texts = key_texts(atlas.p)
    lines = []
    for c in atlas.members():
        se, mu = parity_strings(c)
        lines.append(
            json.dumps(
                {
                    "label": c.label,
                    "kind": c.kind,
                    "eps_se": se,
                    "eps_mu": mu,
                    "elements": [texts[k] for k in c.element_keys()],
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n"
