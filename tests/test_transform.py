from __future__ import annotations

import hashlib
import itertools
import random
import re

import numpy as np
import pytest

from conftest import atlas, qap_of
from qap import transform
from qap.bitcore import BitWord, InvariantError, gf2_echelon, solve_affine
from qap.extension import local_lift, nonlocal_connector
from qap.partition import DecompositionSequence, QAPartition
from qap.spinor import (
    GaussianMatrix, PhasedSpinor, Spinor, key_of, pack, realize, self_parity, spinor_of_key,
    to_matrix,
)
from qap.subalgebra import SpinorSet, intrinsic_cartan, parse_label
from qap.transform import (
    BasicTransform,
    SymbolicCircuit,
    apply_circuit,
    apply_to_cartan,
    build_E,
    build_P,
    build_R,
    build_exchange_step,
    conjugate,
    connect,
    h_matrices,
    h_matrix,
    random_sequence,
    referential_cell,
    transvect,
)

S = Spinor.make
W = BitWord.parse


def H(z: str, a: str) -> BasicTransform:
    return BasicTransform(key_of(S(z, a)), len(z))


def intrinsic_cell(p: int, alpha: str, sigma: int) -> SpinorSet:
    a = W(alpha)
    return SpinorSet(
        p, ((a.bits << p) | z for z in range(1 << p) if (z & a.bits).bit_count() & 1 == 1 - sigma)
    )


def conjugate_by_circuit(q: SymbolicCircuit, s: PhasedSpinor | Spinor) -> PhasedSpinor:
    """s conjugated by every factor in turn, phase kept."""
    if isinstance(s, Spinor):
        s = PhasedSpinor(0, s)
    for f in q.factors:
        s = conjugate(f, s)
    return s


def circuit_matrix(q: SymbolicCircuit, p: int) -> tuple[GaussianMatrix, int]:
    """(U, k) with U = (sqrt 2)^k times the circuit unitary."""
    u = realize(0, p)
    for f in q.factors:
        if f.p != p:
            raise ValueError("factor width mismatch")
        u = h_matrix(f) @ u
    return u, len(q.factors)


def element_image(q: SymbolicCircuit, c) -> frozenset[int]:
    """c's element keys conjugated one phased spinor at a time."""
    return frozenset(key_of(conjugate_by_circuit(q, s).body) for s in c.elements)


# -- single conjugations --------------------------------------------------------


def test_conjugate_commuting_case_is_identity():
    h = H("010", "001")
    s = PhasedSpinor(1, S("000", "100"))  # commutes with S[010|001]
    assert conjugate(h, s) == s


def test_conjugate_reference_case_matches_matrices():
    h = H("001", "001")
    s = S("000", "001")
    got = conjugate(h, s)
    assert got.body == S("001", "000")
    hm = h_matrix(h)
    assert (hm @ to_matrix(s)) @ hm.dagger() == to_matrix(got).scaled(2)


def test_double_application_gives_minus_one():
    h = H("001", "001")
    s = PhasedSpinor(0, S("000", "001"))
    twice = conjugate(h, conjugate(h, s))
    assert twice.body == s.body and twice.i_exp == 2


def test_inverse_conjugation_undoes_forward():
    for h in (H("011", "010"), H("110", "110"), H("101", "000")):
        for z in range(8):
            for a in range(8):
                s = PhasedSpinor(1, Spinor(BitWord(z, 3), BitWord(a, 3)))
                assert conjugate(h.inverted(), conjugate(h, s)) == s


def test_conjugation_matrix_oracle_sampled():
    rng = random.Random(3)
    for _ in range(50):
        p = rng.choice((1, 2, 3))
        h = BasicTransform(
            pack(rng.randrange(1 << p), rng.randrange(1 << p), p), p,
            inverse=bool(rng.randrange(2)),
        )
        s = Spinor(BitWord(rng.randrange(1 << p), p), BitWord(rng.randrange(1 << p), p))
        got = conjugate(h, s)
        hm = h_matrix(h)
        assert (hm @ to_matrix(s)) @ hm.dagger() == to_matrix(got).scaled(2)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_h_matrices_stacks_sqrt2_h_of_every_key(p):
    """Row k of the batched form is h_matrix of key k, I + i (-i)^(zeta.alpha)
    S_k, and h h-dagger is 2 I."""
    stack = h_matrices(np.arange(4**p), p)
    eye = GaussianMatrix(np.eye(1 << p), np.zeros((1 << p, 1 << p)))
    eye2 = eye.scaled(2)
    for k in range(4**p):
        h, s = BasicTransform(k, p), spinor_of_key(k, p)
        want = eye + to_matrix(s).times_i_pow(1 + 3 * self_parity(s))
        assert GaussianMatrix(stack.re[k], stack.im[k]) == h_matrix(h) == want
        assert h_matrix(h) @ h_matrix(h.inverted()) == eye2 == h_matrix(h.inverted()) @ h_matrix(h)


def test_locality_classifier():
    assert H("000", "010").is_local
    assert H("010", "010").is_local
    assert H("100", "000").is_local
    assert not H("000", "011").is_local
    assert not H("110", "000").is_local
    assert not H("011", "101").is_local


@pytest.mark.parametrize("key, p", [(-1, 2), (16, 2), (1 << 32, 16), (0, 0), (0, 17)])
def test_basic_transform_rejects_out_of_range_key_and_width(key, p):
    with pytest.raises(ValueError):
        BasicTransform(key, p)


def test_basic_transform_from_a_zeta_alpha_word_pair():
    # perfbench/tests builds a factor as BasicTransform(zeta, alpha) from BitWords
    h = BasicTransform(W("01"), W("10"), True)
    assert (h.key, h.p, h.inverse) == (0b1001, 2, True)
    assert h == BasicTransform(0b1001, 2, True) and str(h) == "h'[01|10]"
    with pytest.raises(ValueError):
        BasicTransform(W("01"), W("100"))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_is_local_matches_the_alpha_zeta_rule(p):
    # one-bit alpha, or zero alpha with one-bit zeta, read off the two halves
    for key in range(4**p):
        zeta, alpha = key & ((1 << p) - 1), key >> p
        local = alpha.bit_count() == 1 if alpha else zeta.bit_count() == 1
        for inverse in (False, True):
            assert BasicTransform(key, p, inverse).is_local == local


FACTOR = re.compile(r"h('?)\[([01]+)\|([01]+)\]")


def parsed_factors(circuit: SymbolicCircuit) -> list[tuple[int, bool]]:
    """(key, inverse) of every factor, read back from the text form."""
    out = []
    for text in circuit.factor_strings():
        mark, zeta, alpha = FACTOR.fullmatch(text).groups()
        out.append((int(alpha + zeta, 2), mark == "'"))
    return out


def test_factor_text_parses_back_to_key_and_inverse(atlas3):
    steps = ((0b011, 0b001, [0b100]), (0b110, 0b010, []), (0b101, 0b111, [0b001]))
    circuits = [build_exchange_step(src, dst, 3, frozen) for src, dst, frozen in steps]
    circuits += [local_lift(c)[0] for c in list(atlas3.members())[::7]]
    kind3 = list(atlas3.members(3))
    circuits += [nonlocal_connector(kind3[0], c)[0] for c in kind3[::5]]
    assert sum(len(q) for q in circuits) > 20
    for q in circuits:
        for circuit in (q, q.inverted()):
            want = [(f.key, f.inverse) for f in reversed(circuit.factors)]
            assert parsed_factors(circuit) == want


# -- circuits --------------------------------------------------------------------


def test_apply_circuit_empty_and_cardinality():
    cells = qap_of(intrinsic_cartan(3)).cells
    x = cells[(3, 1)]
    assert apply_circuit(SymbolicCircuit(), x) == x
    circ = SymbolicCircuit.of(H("011", "010"), H("101", "100"))
    assert len(apply_circuit(circ, x)) == len(x)
    with pytest.raises(ValueError):
        apply_circuit(SymbolicCircuit.of(H("01", "01")), x)
    with pytest.raises(ValueError):
        apply_circuit(SymbolicCircuit.of(H("011", "010"), H("01", "01")), x)
    with pytest.raises(ValueError):
        conjugate(H("01", "01"), S("000", "000"))


def reference_apply_circuit(q: SymbolicCircuit, x: SpinorSet) -> SpinorSet:
    """The per-spinor route: conjugate every spinor by every factor and
    drop the phase."""
    if not len(x):
        return x
    out = x
    for f in q.factors:
        out = SpinorSet.from_spinors(conjugate(f, s).body for s in out.spinors())
    return out


def test_apply_circuit_matches_per_spinor_reference():
    rng = random.Random(20)
    for p in (1, 2, 3, 4):
        for trial in range(30):
            circ = SymbolicCircuit(tuple(
                BasicTransform(
                    pack(rng.randrange(1 << p), rng.randrange(1 << p), p), p,
                    inverse=bool(rng.randrange(2)),
                )
                for _ in range(rng.randrange(7))
            ))
            size = 0 if trial == 0 else rng.randrange(1, min(16, 4**p) + 1)
            x = SpinorSet(p, rng.sample(range(4**p), size))
            assert apply_circuit(circ, x) == reference_apply_circuit(circ, x)


def transvected(q: SymbolicCircuit, p: int) -> list[int]:
    """Every key of width p pushed through q one transvection per factor."""
    return list(transvect((f.key for f in q.factors), range(4**p), p))


@pytest.mark.parametrize("p", [1, 2])
def test_key_map_is_the_transvection_for_every_single_factor(p):
    for key in range(4**p):
        for inverse in (False, True):
            q = SymbolicCircuit.of(BasicTransform(key, p, inverse))
            assert q.map_keys(range(4**p), p) == transvected(q, p), (key, inverse)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_key_map_of_the_empty_circuit_is_the_identity(p):
    assert SymbolicCircuit().map_keys(range(4**p), p) == list(range(4**p))


@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_key_map_is_the_transvection_for_seeded_circuits(p):
    rng = random.Random(60 + p)
    for length in range(1, 17):
        q = SymbolicCircuit(tuple(
            BasicTransform(rng.randrange(4**p), p, rng.random() < 0.5) for _ in range(length)
        ))
        assert q.map_keys(range(4**p), p) == transvected(q, p), str(q)


def test_circuit_inversion_roundtrip():
    circ = SymbolicCircuit.of(H("011", "010"), H("101", "100"), H("001", "001"))
    s = PhasedSpinor(2, S("110", "011"))
    assert conjugate_by_circuit(circ.inverted(), conjugate_by_circuit(circ, s)) == s


def test_circuit_text_form_is_right_to_left():
    circ = SymbolicCircuit.of(H("001", "001"), H("010", "000"))
    assert str(circ) == "h[010|000] h[001|001]"
    assert str(SymbolicCircuit()) == "(identity)"


def test_circuit_matrix_conjugates_cells():
    p = 2
    circ = SymbolicCircuit.of(H("01", "01"), H("11", "10"))
    u, k = circuit_matrix(circ, p)
    for z in range(4):
        for a in range(4):
            s = Spinor(BitWord(z, p), BitWord(a, p))
            got = conjugate_by_circuit(circ, PhasedSpinor(0, s))
            lhs = (u @ to_matrix(s)) @ u.dagger()
            assert lhs == to_matrix(got).scaled(1 << k)


# -- R --------------------------------------------------------------------------


def test_build_R_examples():
    assert len(build_R(intrinsic_cartan(3))) == 0

    c = parse_label("C^{1}_{[100]}")
    r = build_R(c)
    assert [str(f) for f in r.factors] == ["h[000|100]"]
    moved = conjugate(r.factors[0], S("100", "100"))
    assert moved.body == S("100", "000")
    assert apply_to_cartan(r, c) == intrinsic_cartan(3)


def test_build_R_contract_everywhere(atlas3):
    target = intrinsic_cartan(3)
    for c in atlas3.members():
        assert apply_to_cartan(build_R(c), c) == target


# -- P --------------------------------------------------------------------------


def test_build_P_examples():
    cells = [intrinsic_cell(3, a, 0) for a in ("100", "010", "001")]
    p_circ = build_P([transform._cell_signature(min(cell.keys), 3) for cell in cells], 3)
    assert [str(f) for f in p_circ.factors] == ["h[000|000]"]

    cells = [
        intrinsic_cell(3, "100", 1),
        intrinsic_cell(3, "010", 0),
        intrinsic_cell(3, "001", 0),
    ]
    p_circ = build_P([transform._cell_signature(min(cell.keys), 3) for cell in cells], 3)
    assert [str(f) for f in p_circ.factors] == ["h[100|000]"]
    for cell, alpha in zip(cells, ("100", "010", "001")):
        image = apply_circuit(p_circ, cell)
        assert image == intrinsic_cell(3, alpha, 0)


def test_build_P_rejects_contradicting_signatures():
    # one alpha asked for both parities: no eta satisfies eta.alpha = sigma
    with pytest.raises(InvariantError, match="parity system must be solvable"):
        build_P([(0b101, 0), (0b101, 1)], 3)
    with pytest.raises(ValueError, match="at least one image cell"):
        build_P([], 3)


# -- exchange and E ---------------------------------------------------------------


def test_exchange_step_reference_case():
    e = build_exchange_step(W("011").bits, W("001").bits, 3, [W("100").bits])
    src = intrinsic_cell(3, "011", 0)
    dst = intrinsic_cell(3, "001", 0)
    assert apply_circuit(e, src) == dst
    frozen_cell = intrinsic_cell(3, "100", 0)
    assert apply_circuit(e, frozen_cell) == frozen_cell
    center = intrinsic_cartan(3).elements
    assert apply_circuit(e, center) == center


def test_exchange_step_rejects_equal_endpoints():
    with pytest.raises(ValueError):
        build_exchange_step(W("011").bits, W("011").bits, 3)


def reference_exchange_step(src: int, dst: int, p: int, frozen=()) -> SymbolicCircuit:
    """The exchange step by search: eta walks up from 0, and the first eta
    whose zeta system is solvable wins, with its smallest zeta."""
    if src == dst:
        raise ValueError("exchange endpoints must differ")
    d = src ^ dst
    for eta in range(1 << p):
        if not (eta & d).bit_count() & 1:
            continue
        constraints = [(d, 1), (src, 1 ^ ((eta & src).bit_count() & 1))]
        constraints += [(f, (eta & f).bit_count() & 1) for f in frozen]
        zeta = solve_affine(constraints, p)
        if zeta is not None:
            return SymbolicCircuit.of(
                BasicTransform(pack(eta, d, p), p), BasicTransform(pack(zeta, d, p), p)
            )
    raise ValueError("frozen constraints exhaust the solver's freedom")


def exchange_outcome(build, src: int, dst: int, p: int, frozen) -> SymbolicCircuit | str:
    try:
        return build(src, dst, p, frozen)
    except ValueError as e:
        return str(e)


def test_exchange_step_matches_the_search_for_every_small_case():
    """Every src != dst at p <= 4 with 0-2 frozen words, in either outcome."""
    cases = 0
    for p in range(1, 5):
        words = range(1 << p)
        for k in range(3):
            for frozen, (src, dst) in itertools.product(
                itertools.combinations(words, k), itertools.permutations(words, 2)
            ):
                expected = exchange_outcome(reference_exchange_step, src, dst, p, frozen)
                got = exchange_outcome(build_exchange_step, src, dst, p, frozen)
                assert got == expected, (src, dst, p, frozen)
                cases += 1
    assert cases == 35092


@pytest.mark.parametrize("p", [5, 6, 7, 8])
def test_exchange_step_matches_the_search_on_seeded_draws(p):
    rng = random.Random(p)
    for _ in range(200):
        src, dst = rng.sample(range(1 << p), 2)
        frozen = [rng.randrange(1 << p) for _ in range(rng.randrange(p))]
        expected = exchange_outcome(reference_exchange_step, src, dst, p, frozen)
        got = exchange_outcome(build_exchange_step, src, dst, p, frozen)
        assert got == expected, (src, dst, frozen)


@pytest.mark.parametrize("src, dst, p, frozen, message", [
    (1, 2, 9, (), "exchange steps need p <= 8, got 9"),
    (8, 1, 3, (), "out of range"),
    (1, 8, 3, (), "out of range"),
    (1, 2, 3, (8,), "out of range"),
])
def test_exchange_step_rejects_a_width_past_8_or_a_word_past_p_bits(src, dst, p, frozen, message):
    with pytest.raises(ValueError, match=message):
        build_exchange_step(src, dst, p, frozen)


def test_exchange_preserves_self_parity_class():
    e = build_exchange_step(W("110").bits, W("010").bits, 3, [])
    for sigma in (0, 1):
        src = intrinsic_cell(3, "110", sigma)
        assert apply_circuit(e, src) == intrinsic_cell(3, "010", sigma)


def test_build_E_examples():
    assert len(build_E([W("10").bits, W("01").bits], 2)) == 0

    circ = build_E([W("01").bits, W("11").bits], 2)
    for r, alpha in enumerate(("01", "11"), start=1):
        image = apply_circuit(circ, intrinsic_cell(2, alpha, 0))
        assert image == referential_cell(2, r)


def test_build_E_random_bookkeeping():
    rng = random.Random(11)
    for p in (3, 4, 8):
        from qap.bitcore import gf2_rank

        for _ in range(15):
            while True:
                alphas = [BitWord(rng.randrange(1, 1 << p), p) for _ in range(p)]
                if gf2_rank([a.bits for a in alphas]) == p:
                    break
            circ = build_E([a.bits for a in alphas], p)
            for r, alpha in enumerate(alphas, start=1):
                image = apply_circuit(circ, intrinsic_cell(p, str(alpha), 0))
                assert image == referential_cell(p, r)


# -- the full connector ------------------------------------------------------------


def test_connect_referential_sequence_is_cell_invariant():
    q = qap_of(intrinsic_cartan(3))
    keys = []
    for r in (1, 2, 3):
        cell = referential_cell(3, r)
        keys.append(q.cell_of(next(iter(cell.keys))))
    seq = DecompositionSequence(q, tuple(keys))
    circ = connect(seq)  # the contract assertions inside must pass
    for r, cell in enumerate(seq.steps, start=1):
        assert apply_circuit(circ, cell) == cell


def test_connect_random_sequences():
    rng = random.Random(2718)
    for p in (2, 3):
        members = list(atlas(p).members())
        for _ in range(20):
            c = rng.choice(members)
            seq = random_sequence(qap_of(c), rng)
            circ = connect(seq)
            assert apply_to_cartan(circ, c) == intrinsic_cartan(p)
            for r, cell in enumerate(seq.steps, start=1):
                assert apply_circuit(circ, cell) == referential_cell(p, r)


def test_connect_matrix_level_p2():
    rng = random.Random(31415)
    members = list(atlas(2).members())
    for _ in range(5):
        c = rng.choice(members)
        seq = random_sequence(qap_of(c), rng)
        circ = connect(seq)
        u, k = circuit_matrix(circ, 2)
        scale = 1 << k
        for cell, target in zip(
            seq.steps, [referential_cell(2, r) for r in (1, 2)]
        ):
            for s in cell.spinors():
                lhs = (u @ to_matrix(s)) @ u.dagger()
                image = conjugate_by_circuit(circ, PhasedSpinor(0, s))
                assert image.body in target
                assert lhs == to_matrix(image).scaled(scale)


def seeded_connections(p: int, n: int) -> list[tuple[DecompositionSequence, SymbolicCircuit]]:
    """n seeded sequences at width p, each with its connector."""
    rng = random.Random(70 + p)
    members = list(atlas(p).members())
    seqs = [random_sequence(qap_of(rng.choice(members)), rng) for _ in range(n)]
    return [(seq, connect(seq)) for seq in seqs]


def exchange_length(seq: DecompositionSequence, q: SymbolicCircuit) -> int:
    return len(q) - len(build_R(seq.center)) - 1


# A lone exchange factor moves part of the diagonal off it, which the center
# check sees first; a whole exchange step fixes the diagonal as a set, so only
# the step cell check sees a missing one.
@pytest.mark.parametrize("dropped, message", [
    (1, "center onto the diagonal"), (2, "misses the referential cell at step"),
])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_connect_recheck_catches_dropped_exchange_factors(monkeypatch, p, dropped, message):
    connections = seeded_connections(p, 20)
    build_E = transform.build_E
    monkeypatch.setattr(transform, "build_E",
                        lambda a, p: SymbolicCircuit(build_E(a, p).factors[:-dropped]))
    broken = [seq for seq, q in connections if exchange_length(seq, q)]
    assert len(broken) >= 10
    for seq in broken:
        with pytest.raises(InvariantError, match=message):
            connect(seq)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_connect_catches_a_missing_parity_correction(monkeypatch, p):
    # only the closing contract check reads P: a step cell left at sigma = 1
    # misses its referential cell W^0
    connections = seeded_connections(p, 20)
    monkeypatch.setattr(transform, "build_P", lambda signatures, p: SymbolicCircuit())
    broken = [seq for seq, q in connections if q.factors[len(build_R(seq.center))].key]
    assert len(broken) >= 10
    for seq in broken:
        with pytest.raises(InvariantError, match="misses the referential cell at step"):
            connect(seq)


@pytest.mark.parametrize("smallest", [True, False], ids=["smallest-key", "other-key"])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_connect_rejects_a_step_cell_with_a_key_of_another_cell(p, smallest):
    # connect reads a step cell's signature from its smallest key alone, so
    # only the closing contract check (or a builder, on a signature the
    # sequence does not have) sees the swap: a swapped smallest key is
    # replaced by a smaller foreign key, which the signature then reads; a
    # swapped other key leaves the smallest key, and a right signature, in place
    rng = random.Random(90 + p)
    members = list(atlas(p).members())
    tried = 0
    for _ in range(20):
        q = qap_of(rng.choice(members))
        seq = random_sequence(q, rng)
        r = rng.randrange(p)
        keys = sorted(seq.steps[r].keys)
        x = keys[0] if smallest else rng.choice(keys[1:])
        others = np.flatnonzero(q.cid != q.cid[x])
        others = others[others < keys[1]] if smallest else others[others > keys[0]]
        if not others.size:
            continue
        y = int(rng.choice(others.tolist()))
        cid = q.cid.copy()
        cid[x], cid[y] = cid[y], cid[x]
        swapped = DecompositionSequence(QAPartition(q.cartan, q.maxbi, cid), seq.step_keys)
        assert swapped.steps[r].keys == seq.steps[r].keys - {x} | {y}
        assert min(swapped.steps[r].keys) == (y if smallest else keys[0])
        with pytest.raises((InvariantError, ValueError)):
            connect(swapped)
        tried += 1
    assert tried >= 10


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_connect_transvects_for_R_and_Q_only(monkeypatch, p):
    # R's key map reads the step cells' signatures, Q's checks the contract;
    # P's map is never built, and an empty R (a diagonal center) needs none
    calls = []
    real = transform.transvect

    def counted(factor_keys, keys, p):
        calls.append(p)
        return real(factor_keys, keys, p)

    monkeypatch.setattr(transform, "transvect", counted)
    connections = seeded_connections(p, 10)
    assert any(len(build_R(seq.center)) for seq, _ in connections)
    for seq, q in connections:
        calls.clear()
        assert str(connect(seq)) == str(q)
        assert len(calls) == (2 if len(build_R(seq.center)) else 1)


def random_label(rng: random.Random, p: int) -> str:
    """A label of random kind, independent alpha words and parities."""
    k = rng.randrange(p + 1)
    if k == 0:
        return f"C_[{'0' * p}]"
    words: list[int] = []
    span = {0}
    while len(words) < k:
        w = rng.randrange(1, 1 << p)
        if w not in span:
            words.append(w)
            span |= {x ^ w for x in span}
    parities = "".join(str(rng.randrange(2)) for _ in range(k * (k + 1) // 2))
    return f"C^{{{parities}}}_{{[{','.join(format(w, f'0{p}b') for w in words)}]}}"


def seeded_connect_text(p: int, n: int) -> str:
    """The text form of connect(seq) for n seeded sequences at width p."""
    rng = random.Random(p)
    circuits = []
    for _ in range(n):
        c = parse_label(random_label(rng, p))
        circuits.append(str(connect(random_sequence(qap_of(c), rng))))
    return "\n".join(circuits)


# sha256 of seeded_connect_text(p, 20), pinned when every circuit was built
# by conjugating each spinor of each cell separately
CONNECT_TEXT_SHA256 = {
    2: "75d963c7c8580143157fa30b6560ae3a7cc8389d74668bda549cd2f8265bcc2a",
    3: "220eea3964b75639833663c590bb96eda5b8ec2f1d990d1c5b9b6d3442aef2ba",
    4: "649d5000875025db7795dbef3f6ee3bc3d5379e41df5e08f9829a1a0ce3e5310",
    5: "e5c31bb480059a81fa7eccb4871cce27c849981c03802eebcf1fb2d24b8342c4",
}


@pytest.mark.parametrize("p", sorted(CONNECT_TEXT_SHA256))
def test_connect_text_is_pinned(p):
    text = seeded_connect_text(p, 20)
    assert hashlib.sha256(text.encode()).hexdigest() == CONNECT_TEXT_SHA256[p]


# -- subalgebras move with their basis ---------------------------------------------


@pytest.mark.parametrize("p", [1, 2])
def test_apply_to_cartan_matches_the_element_image_for_every_factor(p):
    for c in atlas(p).members():
        for key in range(1 << (2 * p)):
            q = SymbolicCircuit.of(BasicTransform(key, p))
            image = apply_to_cartan(q, c)
            assert image.elements == apply_circuit(q, c.elements), (c.label, key)
            assert image.elements.keys == element_image(q, c), (c.label, key)
            assert image.basis_keys == tuple(gf2_echelon(image.elements.keys)), (c.label, key)


@pytest.mark.parametrize("p", [3, 4])
def test_apply_to_cartan_matches_the_element_image_for_seeded_circuits(p):
    rng = random.Random(40 + p)
    for c in rng.sample(list(atlas(p).members()), 60):
        q = SymbolicCircuit(tuple(
            BasicTransform(rng.randrange(1 << (2 * p)), p, rng.random() < 0.5)
            for _ in range(rng.randrange(1, 6))
        ))
        image = apply_to_cartan(q, c)
        assert image.elements == apply_circuit(q, c.elements), (c.label, str(q))
        assert image.elements.keys == element_image(q, c), (c.label, str(q))
        assert image.basis_keys == tuple(gf2_echelon(image.elements.keys)), (c.label, str(q))
