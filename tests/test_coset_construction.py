"""Differential tests of the coset construction of G(C).

MaxBiGroup, build_qap, the enumeration's phase pairs and
commuting_bisubalgebra all read the maximal bi-subalgebras and their
conjugate pairs off the cosets of C.  The references below are the
earlier constructions: bit- and phase-type candidates deduplicated and
indexed greedily over coset leaders found by a commutant nullspace solve,
a four-deep search for the anti-commuting product that labels a composite
pair, one nullspace solve per phase-type generator set, and a generator
cut for the commuting bi-subalgebra.  The bit- and phase-type
constructions, and the maximal subgroups they range over, live here
only; test_bitcore and test_subalgebra check them on worked examples.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

import qap.subalgebra
from conftest import atlas
from qap.bitcore import (
    BitSubgroup,
    BitWord,
    InvariantError,
    gf2_echelon,
    gf2_nullspace,
    gf2_reduce,
)
from qap.partition import build_qap
from qap.spinor import Spinor, bi_add, commutes
from qap.subalgebra import (
    BiSubalgebra,
    CartanSubalgebra,
    SpinorSet,
    all_maximal,
    commuting_bisubalgebra,
    intrinsic_cartan,
    key_of,
    omega,
    parse_label,
    phase_type_generator_keys,
    spinor_of_key,
    swap_key,
)
from test_extension import _phase_pairs


def span_keys(gen_keys) -> frozenset[int]:
    vals = [0]
    for g in gf2_echelon(gen_keys):
        vals += [v ^ g for v in vals]
    return frozenset(vals)


def maximal_subgroups(g: BitSubgroup) -> list[BitSubgroup]:
    """All index-2 subgroups of g (2^rank - 1 of them), sorted by basis."""
    k = g.rank
    if k == 0:
        return []
    out = []
    for f in range(1, 1 << k):
        # kernel of the coordinate functional f over the basis of g
        piv = (f & -f).bit_length() - 1
        kernel_words = []
        for j in range(k):
            if j == piv:
                continue
            w = g.basis[j].bits
            if (f >> j) & 1:
                w ^= g.basis[piv].bits
            kernel_words.append(BitWord(w, g.p))
        out.append(BitSubgroup.span(kernel_words, g.p))
    out.sort(key=lambda s: tuple(b.bits for b in s.basis))
    return out


def bit_type_maximal(c: CartanSubalgebra, sub: BitSubgroup) -> BiSubalgebra:
    """Elements of c whose binary partitioning lies in a maximal subgroup."""
    if c.kind == 0:
        raise ValueError("a 0th-kind subalgebra has no bit-type maximal bi-subalgebra")
    if sub.rank != c.kind - 1 or not sub.is_subgroup_of(c.alpha_group):
        raise ValueError("sub must be a maximal subgroup of the alpha group")
    members = set(sub.member_bits())
    keep = frozenset(k for k in c.elements.keys if k >> c.p in members)
    return BiSubalgebra(SpinorSet(c.p, keep), c)


def phase_type_maximal(
    c: CartanSubalgebra, kernel_sub: BitSubgroup, coset_choice: int
) -> BiSubalgebra:
    """Bisect c through a maximal subgroup of the diagonal phase strings.

    coset_choice bit j-1 picks, for the j-th canonical generator, which of
    the two kernel-subcosets of its phase block enters the generating
    union (0 = the half holding the block's smallest phase).
    """
    gen_keys = phase_type_generator_keys(c, kernel_sub, coset_choice)
    elements = SpinorSet(c.p, span_keys(gen_keys))
    if len(elements) != 1 << (c.p - 1):
        raise InvariantError(f"a bi-subalgebra of {c.label} must hold 2^(p-1) elements")
    return BiSubalgebra(elements, c)


def commutant_rows(gen_keys, p):
    return [swap_key(k, p) for k in gen_keys]


def ref_pair_keys(c, b_keys) -> list[int]:
    """The commutant of b's generators minus c, by one nullspace solve."""
    p = c.p
    rows = commutant_rows(gf2_echelon(b_keys), p)
    return [k for k in span_keys(gf2_nullspace(rows, 2 * p)) if k not in c.elements.keys]


def candidate_members(c) -> list[frozenset[int]]:
    """Bit-type and phase-type maximal bi-subalgebras, with repeats."""
    proper = []
    if c.kind >= 1:
        for sub in maximal_subgroups(c.alpha_group):
            proper.append(bit_type_maximal(c, sub).elements.keys)
    for kernel in maximal_subgroups(c.diag_phase_group):
        for choice in range(1 << c.kind):
            proper.append(phase_type_maximal(c, kernel, choice).elements.keys)
    return proper


def ref_build(c) -> tuple[list[frozenset[int]], list[int]]:
    """(member keys, leaders) by search, dedupe and greedy indexing."""
    p = c.p
    proper = list(dict.fromkeys(candidate_members(c)))
    assert len(proper) == (1 << p) - 1
    c_rows = gf2_echelon(c.elements.keys)
    with_leaders = sorted((min(ref_pair_keys(c, b)), sorted(b)) for b in proper)
    rep_to_index = {0: 0}
    basis_weight = 1
    indexed = {}
    leader_by_index = {0: 0}
    for leader, b in with_leaders:
        rep = gf2_reduce(leader, c_rows)
        if rep not in rep_to_index:
            w = basis_weight
            basis_weight <<= 1
            rep_to_index.update(
                {gf2_reduce(r ^ rep, c_rows): i | w for r, i in rep_to_index.items()}
            )
        idx = rep_to_index[rep]
        indexed[idx] = frozenset(b)
        leader_by_index[idx] = leader
    members = [c.elements.keys] + [indexed[i] for i in range(1, 1 << p)]
    return members, [leader_by_index[i] for i in range(1 << p)]


def ref_cells(c, members, leaders) -> dict[tuple[int, int], frozenset[int]]:
    """Label each composite pair from the first anti-commuting product
    found among the halves of its two index parts."""
    p = c.p
    cells = {(0, 1): c.elements.keys, (0, 0): frozenset()}
    for i in range(1, 1 << p):
        w = frozenset(leaders[i] ^ k for k in members[i])
        w_hat = frozenset(leaders[i] ^ k for k in c.elements.keys - members[i])
        if i & (i - 1) == 0:
            cells[(i, 1)], cells[(i, 0)] = w, w_hat
            continue
        i1 = i & -i
        i2 = i ^ i1
        placed = False
        for e1 in (1, 0):
            for e2 in (1, 0):
                for x in cells[(i1, e1)]:
                    for y in cells[(i2, e2)]:
                        if not omega(x, y, p):
                            continue
                        eps = e1 ^ e2
                        if (x ^ y) in w:
                            cells[(i, eps)], cells[(i, 1 - eps)] = w, w_hat
                        else:
                            cells[(i, eps)], cells[(i, 1 - eps)] = w_hat, w
                        placed = True
                        break
                    if placed:
                        break
                if placed:
                    break
            if placed:
                break
        assert placed
    return cells


def ref_phase_pairs(c) -> set[tuple[frozenset[int], frozenset[frozenset[int]]]]:
    """(B, {W, W-hat}) per phase-type B, one nullspace solve each."""
    p = c.p
    out = set()
    for kernel in maximal_subgroups(c.diag_phase_group):
        for choice in range(1 << c.kind):
            gen_keys = phase_type_generator_keys(c, kernel, choice)
            b = span_keys(gen_keys)
            s0 = next(
                v for v in gf2_nullspace(commutant_rows(gen_keys, p), 2 * p)
                if v not in c.elements.keys
            )
            t = s0 ^ next(iter(c.elements.keys - b))
            out.add((b, frozenset({frozenset(s0 ^ k for k in b), frozenset(t ^ k for k in b)})))
    return out


def ref_commuting_bisubalgebra(s, c) -> frozenset[int]:
    diag = [Spinor(z, BitWord(0, c.p)) for z in c.diag_phase_group.basis]
    gens = [*diag, *c.generators]
    anti = [g for g in gens if not commutes(s, g)]
    if not anti:
        return c.elements.keys
    cut = [g for g in gens if commutes(s, g)]
    cut += [bi_add(anti[0], a) for a in anti[1:]]
    return span_keys(key_of(g) for g in cut) if cut else frozenset([0])


def seeded_cartans(p: int, n: int, seed: int) -> list[CartanSubalgebra]:
    """n subalgebras of su(2^p) from random labels, kinds 0..p in turn."""
    rng = random.Random(seed)
    out = []
    for t in range(n):
        k = t % (p + 1)
        if k == 0:
            out.append(intrinsic_cartan(p))
            continue
        rows: list[int] = []
        while len(gf2_echelon(rows)) < k:
            rows.append(rng.randrange(1, 1 << p))
        alphas = ",".join(format(r, f"0{p}b") for r in gf2_echelon(rows))
        parities = "".join(rng.choice("01") for _ in range(k * (k + 1) // 2))
        out.append(parse_label(f"C^{{{parities}}}_{{[{alphas}]}}"))
    return out


def differential_cases() -> list[CartanSubalgebra]:
    cases = [c for p in (1, 2, 3) for c in atlas(p).members()]
    return cases + seeded_cartans(4, 10, 4) + seeded_cartans(5, 6, 5)


def test_members_and_leaders_match_the_search_construction():
    for c in differential_cases():
        g = all_maximal(c)
        members, leaders = ref_build(c)
        assert g.leaders == leaders, c.label
        assert [b.elements.keys for b in g.members] == members, c.label


def test_cells_match_the_four_deep_labelling():
    for c in differential_cases():
        q = build_qap(c, verify=c.p <= 3)
        g = q.maxbi
        want = ref_cells(c, [b.elements.keys for b in g.members], g.leaders)
        assert {key: cell.keys for key, cell in q.cells.items()} == want, c.label


def test_phase_pairs_match_the_nullspace_solves():
    for c in differential_cases():
        got = {(b, frozenset({w, w_hat})) for b, w, w_hat in _phase_pairs(c)}
        assert got == ref_phase_pairs(c), c.label


def test_proper_members_are_the_bit_and_phase_type_constructions():
    for c in differential_cases():
        proper = {b.elements.keys for b in all_maximal(c).members[1:]}
        assert proper == set(candidate_members(c)), c.label


@pytest.mark.parametrize("p", [1, 2])
def test_commuting_bisubalgebra_matches_the_generator_cut(p):
    spinors = [spinor_of_key(k, p) for k in range(1 << (2 * p))]
    for c, s in itertools.product(atlas(p).members(), spinors):
        assert commuting_bisubalgebra(s, c).elements.keys == ref_commuting_bisubalgebra(s, c)


def test_a_coset_that_does_not_bisect_is_an_invariant_failure():
    # S[10|00] and S[00|10] anti-commute: the span is no Cartan subalgebra,
    # and the coset led by S[01|00] commutes with all of it
    z, x = key_of(Spinor(BitWord(2, 2), BitWord(0, 2))), key_of(Spinor(BitWord(0, 2), BitWord(2, 2)))
    fake = CartanSubalgebra.from_basis(2, gf2_echelon([z, x]))
    with pytest.raises(InvariantError):
        all_maximal(fake)


@pytest.mark.parametrize(
    "row, entries, reason",
    [
        (0, 1, "is not closed under bi-addition"),
        (1, 1, "must hold 2^(p-1) elements"),
        (1, 2, "is not closed under bi-addition"),
    ],
)
def test_a_corrupt_comm_entry_is_an_invariant_failure(monkeypatch, row, entries, reason):
    """MaxBiGroup trusts its members once comm passes the row-sum and
    additivity checks, so a corrupt comm must fail one of them, under -O too.
    Flipping a commuting and an anti-commuting entry of one row keeps its
    sum and breaks only closure."""
    c = parse_label("C^{101}_{[00011,01100]}")
    comm = all_maximal(c).comm
    flips = [(row, int(np.argmin(comm[row]))), (row, int(np.argmax(comm[row])))][:entries]
    real = qap.subalgebra.omega

    def corrupt_omega(x, y, p):
        out = real(x, y, p)
        if np.ndim(out) == 2:
            out = out.copy()
            for i, j in flips:
                out[i, j] ^= 1
        return out

    monkeypatch.setattr(qap.subalgebra, "omega", corrupt_omega)
    with pytest.raises(InvariantError) as err:
        all_maximal(c)
    assert str(err.value) == f"a bi-subalgebra of {c.label} {reason}"
