"""Every Cartan subalgebra of su(2^p), enumerated from its label
C^{eps}_{[a_1...a_k]}: a reduced echelon alpha basis plus a symmetric
parity matrix, walked directly with no search and no dedupe.  The paper's
shell construction, B u W over phase-type B, stays as extend_shell.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .bitcore import BitWord, InvariantError, gf2_nullspace, gf2_span
from .partition import build_qap
from .spinor import key_text, omega
from .subalgebra import CartanSubalgebra, SpinorSet
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

    def members(self) -> Iterator[CartanSubalgebra]:
        for k in sorted(self.by_kind):
            yield from self.by_kind[k]


def extend_shell(c: CartanSubalgebra) -> set[CartanSubalgebra]:
    """All kind-(k+1) Cartan subalgebras obtainable as the union of a
    phase-type maximal bi-subalgebra of c with one of its conditioned
    subspaces; empty once c is of the top kind."""
    out: set[CartanSubalgebra] = set()
    for b, w, w_hat in _phase_pairs(c):
        for half in (w, w_hat):
            ext = CartanSubalgebra(SpinorSet(c.p, b | half), _trusted=True)
            if ext.kind != c.kind + 1:
                raise InvariantError(f"extension of {c.label} is not of the next kind")
            out.add(ext)
    return out


def _phase_pairs(c: CartanSubalgebra):
    """(B keys, W^1 keys, W^0 keys) for every phase-type maximal
    bi-subalgebra B_i of c, read from c's partition: the members whose
    commutant misses a diagonal element (a key below 2^p)."""
    q = build_qap(c, verify=False)
    g = q.maxbi
    phase_type = ~g.comm[:, g.keys < 1 << c.p].all(axis=1)
    for i in phase_type.nonzero()[0].tolist():
        yield g.members[i].elements.keys, q.cells[(i, 1)].keys, q.cells[(i, 0)].keys


def _shell(p: int, k: int) -> Iterator[frozenset[int]]:
    """Element sets of the kind-k members, one per label.

    Alpha bases: choose pivot bits b_i, fill the non-pivot bits below each.
    As u_i = 2^b_i has u_i . a_j = delta_ij, parity matrix eps gives row j
    the phase XOR_i eps_ij u_i; eps is walked in Gray-code order, an entry
    and its mirror per step.  Each member, spanned with the rows' diagonal
    kernel, must hold 2^p keys whose generators commute pairwise."""
    upper = [(r, s) for r in range(k) for s in range(r, k)]
    for pivots in itertools.combinations(range(p), k):
        fills = [gf2_span([1 << j for j in range(b) if j not in pivots]) for b in pivots]
        for low in itertools.product(*fills):
            rows = [(1 << b) | f for b, f in zip(pivots, low)]
            kernel = gf2_nullspace(rows, p)
            phases = [0] * k
            for step in range(1 << len(upper)):
                if step:
                    r, s = upper[(step & -step).bit_length() - 1]
                    phases[r] ^= 1 << pivots[s]
                    phases[s] ^= (r != s) << pivots[r]
                gens = kernel + [(a << p) | z for a, z in zip(rows, phases)]
                elements = frozenset(gf2_span(gens))
                if len(elements) != 1 << p or any(
                    omega(g, h, p) for i, g in enumerate(gens) for h in gens[:i]
                ):
                    raise InvariantError(f"rows {rows}, phases {phases}: not a Cartan subalgebra")
                yield elements


def enumerate_all(p: int) -> CartanAtlas:
    """Every Cartan subalgebra of su(2^p) from its label, each shell sorted
    by element list and checked against its closed-form count; the total
    is checked against the product formula and for distinct members."""
    if not 1 <= p <= ENUMERATION_MAX_P:
        raise ValueError(f"enumeration guarded to p <= {ENUMERATION_MAX_P}")
    by_kind: dict[int, list[CartanSubalgebra]] = {}
    seen: set[frozenset[int]] = set()
    for k in range(p + 1):
        shell = sorted(_shell(p, k), key=sorted)
        if len(shell) != count_kind(p, k):
            raise InvariantError(f"shell {k}: {len(shell)} members, not {count_kind(p, k)}")
        seen.update(shell)
        by_kind[k] = [CartanSubalgebra(SpinorSet(p, keys), _trusted=True) for keys in shell]
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


def local_lift(c: CartanSubalgebra) -> tuple[SymbolicCircuit, CartanSubalgebra]:
    """Raise a kind-k subalgebra to the top kind with single-bit-alpha
    factors, one new independent partitioning direction per factor: the
    unit words off the pivots of the reduced alpha basis, ascending."""
    p = c.p
    pivots = {(g >> p).bit_length() - 1 for g in c.generator_keys}
    circuit = SymbolicCircuit(tuple(
        BasicTransform(BitWord.zero(p), BitWord(1 << j, p)) for j in range(p) if j not in pivots
    ))
    lifted = apply_to_cartan(circuit, c)
    if lifted.kind != p:
        raise AssertionError("local lift failed to reach the top kind")
    return circuit, lifted


def se_normalizer(se: str) -> SymbolicCircuit:
    """Diagonal single-bit factors flipping the marked self parities;
    se[i] belongs to the ascending basis word with value 2^i."""
    p = len(se)
    factors = [
        BasicTransform(BitWord(1 << i, p), BitWord.zero(p))
        for i in range(p)
        if se[i] == "1"
    ]
    return SymbolicCircuit(tuple(factors))


def classify_local(atlas: CartanAtlas) -> dict[str, list[CartanSubalgebra]]:
    """Partition the atlas into local-equivalence classes keyed by the
    mutual-parity string of the (self-parity-normalized) local lift."""
    index: dict[str, list[CartanSubalgebra]] = {}
    for c in atlas.members():
        _, lifted = local_lift(c)
        se, mu = mutual_parity(lifted)
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
        raise AssertionError("self-parity normalization went wrong")
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
                factors.append(
                    BasicTransform(BitWord((1 << i) | (1 << j), p), BitWord.zero(p))
                )
                flips[i] ^= 1
                flips[j] ^= 1
    for i in range(p):
        if int(se1[i]) ^ flips[i] ^ int(se2[i]):
            factors.append(BasicTransform(BitWord(1 << i, p), BitWord.zero(p)))
    circuit = SymbolicCircuit(tuple(factors))
    target = apply_to_cartan(circuit, c1)
    if target != c2:
        got = mutual_parity(target)
        raise AssertionError(
            f"connector verification failed: reached se={got.se} mu={got.mu}, "
            f"wanted se={se2} mu={mu2}"
        )
    return circuit, target


def atlas_jsonl(atlas: CartanAtlas) -> str:
    """One JSON object per subalgebra: label, kind, parity strings,
    canonical element list."""
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
                    "elements": [key_text(k, c.p) for k in sorted(c.elements.keys)],
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n"
