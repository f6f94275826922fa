"""The paper's constructions that no command reaches, as references the tests
check the package against: the element-key basis and parity table, the
leader-first conjugate pair, the coset split and the connectors."""

from __future__ import annotations

from typing import NamedTuple

from qap.bitcore import InvariantError, gf2_echelon
from qap.extension import local_lift
from qap.spinor import key_product, key_text, omega
from qap.subalgebra import CartanSubalgebra, SpinorSet, all_maximal
from qap.transform import BasicTransform, SymbolicCircuit, apply_to_cartan


def ref_basis(c: CartanSubalgebra) -> tuple[int, ...]:
    return tuple(gf2_echelon(c.elements.keys))


def ref_parity_table(c: CartanSubalgebra) -> tuple[tuple[int, ...], ...]:
    p = c.p
    gens = [g for g in reversed(ref_basis(c)) if g >> p]
    return tuple(tuple(key_product(gj, gi, p)[0] >> 1 for gj in gens) for gi in gens)


def conjugate_pair(c: CartanSubalgebra, i: int) -> tuple[frozenset[int], frozenset[int]]:
    """Pair i of c, the coset leaders[i] + c of MaxBiGroup bisected by B_i, as
    key sets, the half holding the leader first: leader + B_i, then
    leader + (c - B_i)."""
    g = all_maximal(c)
    w, w_hat = (g.leaders[i] ^ g.keys[half] for half in (g.comm[i], ~g.comm[i]))
    return frozenset(w.tolist()), frozenset(w_hat.tolist())


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


class ParityStrings(NamedTuple):
    se: str
    mu: str


def mutual_parity(c: CartanSubalgebra) -> ParityStrings:
    """Self- and mutual-parity strings of a top-kind subalgebra over the
    ascending unit-vector basis: the parity table's diagonal, then its
    upper triangle row by row."""
    if c.kind != c.p:
        raise ValueError("mutual parity is defined on the top kind; lift first")
    rows = ["".join(map(str, row)) for row in ref_parity_table(c)]
    se = "".join([row[i] for i, row in enumerate(rows)])
    return ParityStrings(se, "".join([row[i + 1 :] for i, row in enumerate(rows)]))


def class_connector(c: CartanSubalgebra) -> tuple[SymbolicCircuit, CartanSubalgebra, str]:
    """(circuit, representative, class key): the local circuit carrying c
    onto the zero-self-parity representative of its class, the local lift
    followed by one diagonal single-bit factor h[2^i|0] per self parity
    se[i] = 1 of the lift."""
    lift_circ, lifted = local_lift(c)
    se, mu = mutual_parity(lifted)
    norm = SymbolicCircuit(tuple(BasicTransform(1 << i, c.p) for i in range(c.p) if se[i] == "1"))
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
