"""Shell-by-shell generation of all Cartan subalgebras of su(2^p).

Each shell extends every kind-k member through its phase-type maximal
bi-subalgebras: B u W and B u W-hat are kind-(k+1) Cartan subalgebras.
Closed-form counts guard the breadth-first sweep; a mismatch fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional

from .bitcore import BitWord, InvariantError, gf2_echelon, gf2_reduce
from .partition import union_is_cartan
from .spinor import key_text, keys_commute
from .subalgebra import (
    CartanSubalgebra,
    SpinorSet,
    conjugate_pair_keys,
    coset_leaders,
    intrinsic_cartan,
)
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
    class_index: Optional[dict[str, list[CartanSubalgebra]]] = field(default=None)

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
    """(B keys, W keys, W-hat keys) for every phase-type maximal
    bi-subalgebra B of c: the cosets of c whose commutant in c misses a
    diagonal element, that is, whose leader anti-commutes with one."""
    p = c.p
    diag = gf2_echelon(k for k in c.elements.keys if k >> p == 0)
    for leader in coset_leaders(c):
        if not all(keys_commute(leader, d, p) for d in diag):
            yield conjugate_pair_keys(c, leader)


def extend_shell_via_qap(c: CartanSubalgebra) -> set[CartanSubalgebra]:
    """Reference route through the full partition machinery; used to
    cross-check the coset-translation fast path."""
    from .partition import build_qap

    q = build_qap(c)
    out: set[CartanSubalgebra] = set()
    for i in range(1, 1 << c.p):
        b = q.maxbi.members[i]
        if b.flavor != "phase_type":
            continue
        for eps in (0, 1):
            out.add(union_is_cartan(b, q.cells[(i, eps)]))
    return out


def enumerate_all(p: int) -> CartanAtlas:
    """Breadth-first subalgebra extension from the diagonal subalgebra,
    deduplicated by canonical element sets; every shell is checked
    against the closed-form count."""
    if not 1 <= p <= ENUMERATION_MAX_P:
        raise ValueError(f"enumeration guarded to p <= {ENUMERATION_MAX_P}")
    by_kind: dict[int, list[CartanSubalgebra]] = {0: [intrinsic_cartan(p)]}
    for k in range(p):
        shell: dict[frozenset[int], CartanSubalgebra] = {}
        for c in by_kind[k]:
            for b_keys, w, w_hat in _phase_pairs(c):
                for half in (w, w_hat):
                    keys = b_keys | half
                    if keys not in shell:
                        shell[keys] = CartanSubalgebra(
                            SpinorSet(p, keys), _trusted=True
                        )
        members = sorted(shell.values(), key=lambda c: tuple(sorted(c.elements.keys)))
        expected = count_kind(p, k + 1)
        if len(members) != expected:
            raise AssertionError(
                f"shell {k + 1}: enumerated {len(members)}, closed form {expected}"
            )
        by_kind[k + 1] = members
    atlas = CartanAtlas(p, by_kind)
    if atlas.total != count_total(p):
        raise AssertionError("total count does not match the closed form")
    return atlas


# ---------------------------------------------------------------------------
# local equivalence


class ParityStrings(NamedTuple):
    se: str
    mu: str


def mutual_parity(c: CartanSubalgebra) -> ParityStrings:
    """Self- and mutual-parity strings of a top-kind subalgebra over the
    ascending unit-vector basis."""
    p = c.p
    if c.kind != p:
        raise ValueError("mutual parity is defined on the top kind; lift first")
    table = c.parity_table
    se = "".join(str(table[i][i]) for i in range(p))
    mu = "".join(str(table[i][j]) for i in range(p) for j in range(i + 1, p))
    return ParityStrings(se, mu)


def local_lift(c: CartanSubalgebra) -> tuple[SymbolicCircuit, CartanSubalgebra]:
    """Raise a kind-k subalgebra to the top kind with single-bit-alpha
    factors, one new independent partitioning direction per factor."""
    p = c.p
    factors = []
    span_rows = [w.bits for w in c.alpha_group.basis]
    for _ in range(p - c.kind):
        unit = next(
            BitWord(1 << j, p)
            for j in range(p)
            if gf2_reduce(1 << j, sorted(span_rows, reverse=True)) != 0
        )
        span_rows = gf2_echelon(span_rows + [unit.bits])
        factors.append(BasicTransform(BitWord.zero(p), unit))
    circuit = SymbolicCircuit(tuple(factors))
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
    atlas.class_index = index
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
    import json

    lines = []
    for c in atlas.members():
        k = c.kind
        table = c.parity_table
        se = "".join(str(table[i][i]) for i in range(k))
        mu = "".join(str(table[i][j]) for i in range(k) for j in range(i + 1, k))
        lines.append(
            json.dumps(
                {
                    "label": c.label,
                    "kind": k,
                    "eps_se": se,
                    "eps_mu": mu,
                    "elements": [key_text(k, c.p) for k in sorted(c.elements.keys)],
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n"
