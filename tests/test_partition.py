from __future__ import annotations

import functools
import itertools
import random
import re

import numpy as np
import pytest

from conftest import atlas, qap_of
from qap import partition
from qap.bitcore import InvariantError
from qap.partition import (
    CellKey,
    ClosureReport,
    ConjugatePair,
    DecompositionSequence,
    QAPartition,
    build_qap,
    cell_label,
    conjugate_pair_of,
    coquotient_view,
    qap_to_json,
    render_table,
    split_by_commutation,
    verify_closure,
)
from qap.spinor import Spinor
from qap.subalgebra import (
    BiSubalgebra,
    CartanSubalgebra,
    SpinorSet,
    all_maximal,
    intrinsic_cartan,
    omega,
    parse_label,
    spinor_of_key,
)
from test_coset_construction import seeded_cartans

S = Spinor.make


def strs(ss: SpinorSet) -> list[str]:
    return [str(s) for s in ss.spinors()]


def retagged(q: QAPartition, keys, cell: CellKey | None) -> QAPartition:
    """q with the given keys moved into cell, or into no cell for None, on
    a copy of its cell-id array."""
    cid = q.cid.copy()
    cid[list(keys)] = -1 if cell is None else (cell[0] << 1) | cell[1]
    return QAPartition(q.cartan, q.maxbi, cid)


def flipped(q: QAPartition, i: int) -> QAPartition:
    """q with the two labels of pair i swapped."""
    return QAPartition(q.cartan, q.maxbi, q.cid ^ (q.cid >> 1 == i))


def commutator_lands_in(q: QAPartition, a, b, t) -> bool:
    ca, cb, ct = q.cells[a], q.cells[b], q.cells[t]
    for x in ca.keys:
        for y in cb.keys:
            if omega(x, y, q.p) and (x ^ y) not in ct.keys:
                return False
    return True


# -- conjugate pairs ----------------------------------------------------------


def test_degrade_pair():
    c = intrinsic_cartan(3)
    g = all_maximal(c)
    pair = conjugate_pair_of(c, g.members[0])
    assert pair.is_degrade
    assert pair.w == c.elements and len(pair.w_hat) == 0


def test_intrinsic_pair_row():
    c = intrinsic_cartan(3)
    g = all_maximal(c)
    pair = conjugate_pair_of(c, g.members[1])
    assert strs(pair.w) == ["S[000|001]", "S[010|001]", "S[100|001]", "S[110|001]"]
    assert strs(pair.w_hat) == ["S[001|001]", "S[011|001]", "S[101|001]", "S[111|001]"]


def test_kind2_pair_row():
    c = parse_label("C^{110}_{[001,100]}")
    q = qap_of(c)
    assert strs(q.cells[(4, 1)]) == [
        "S[000|010]", "S[101|011]", "S[001|110]", "S[100|111]",
    ]
    assert strs(q.cells[(4, 0)]) == [
        "S[010|010]", "S[111|011]", "S[011|110]", "S[110|111]",
    ]


def test_pair_invariants(atlas3):
    for c in list(atlas3.members())[::17]:
        g = all_maximal(c)
        for b in g.members[1:]:
            pair = conjugate_pair_of(c, b)
            union = pair.w.keys | pair.w_hat.keys
            # commutes with the determinant, anti-commutes with the rest
            for x in union:
                assert not any(omega(x, k, 3) for k in b.elements.keys)
                assert all(omega(x, k, 3) for k in c.elements.keys - b.elements.keys)
            # coset of the center under bi-addition
            leader = min(union)
            assert union == {leader ^ k for k in c.elements.keys}
            # halves obey the coset rule; cross products leave it
            for x, y in itertools.combinations(pair.w.keys, 2):
                assert (x ^ y) in b.elements.keys
            for x in pair.w.keys:
                assert not any(omega(x, y, 3) for y in pair.w.keys)
                assert all(omega(x, y, 3) for y in pair.w_hat.keys)
                for y in pair.w_hat.keys:
                    assert (x ^ y) not in b.elements.keys


def test_pair_matches_bruteforce_scan(atlas3):
    # oracle: collect commutant members by scanning all 4^p spinors, then
    # bisect from the smallest member by the coset rule
    for c in list(atlas3.members())[::31]:
        g = all_maximal(c)
        for b in g.members[1:4]:
            scan = [
                k
                for k in range(1 << 6)
                if k not in c.elements.keys
                and not any(omega(k, e, 3) for e in b.elements.keys)
            ]
            s0 = min(scan)
            w_scan = {k for k in scan if (s0 ^ k) in b.elements.keys}
            pair = conjugate_pair_of(c, b)
            assert pair.w.keys == w_scan
            assert pair.w_hat.keys == set(scan) - w_scan


def test_pairs_of_distinct_determinants_are_disjoint(atlas3):
    for c in list(atlas3.members())[::41]:
        q = qap_of(c)
        pairs = [
            q.cells[(i, 1)].keys | q.cells[(i, 0)].keys for i in range(1, 8)
        ]
        for a, b in itertools.combinations(pairs, 2):
            assert not (a & b)


def ref_conjugate_pair_of(c, b) -> ConjugatePair:
    """Reference: read the pair off a whole unverified partition, the cells of
    pair i with the one holding the leader first."""
    q = build_qap(c, verify=False)
    i = q.maxbi.members.index(b)
    e = int(q.cid[q.maxbi.leaders[i]]) & 1
    return ConjugatePair(b, q.cells[(i, e)], q.cells[(i, e ^ 1)])


def test_pairs_read_from_the_group_match_the_partition_cells():
    members = [c for p in (1, 2, 3) for c in atlas(p).members()]
    for c in members + seeded_cartans(5, 6, 23):
        for b in all_maximal(c).members:
            want, got = ref_conjugate_pair_of(c, b), conjugate_pair_of(c, b)
            assert (got.w.keys, got.w_hat.keys) == (want.w.keys, want.w_hat.keys), c.label
            assert got.w.p == c.p and got.w_hat.p == c.p and got.determinant is b


def test_pair_needs_matching_parent():
    c1 = intrinsic_cartan(3)
    c2 = parse_label("C^{1}_{[100]}")
    b = all_maximal(c2).members[1]
    with pytest.raises(ValueError):
        conjugate_pair_of(c1, b)


def test_pair_needs_a_maximal_bi_subalgebra():
    c = intrinsic_cartan(3)
    with pytest.raises(ValueError, match="^not a maximal bi-subalgebra$"):
        conjugate_pair_of(c, BiSubalgebra(SpinorSet(3, [0, 1]), c))


# -- full partitions ----------------------------------------------------------


def test_build_qap_structure():
    q = qap_of(intrinsic_cartan(3))
    assert len(q.cells) == 16
    assert q.cells[(0, 1)] == intrinsic_cartan(3).elements
    assert len(q.cells[(0, 0)]) == 0
    assert q.partition_fault() is None
    for i in range(1, 8):
        for eps in (0, 1):
            assert len(q.cells[(i, eps)]) == 4


def test_verify_closure_passes_on_sampled_atlas(atlas3):
    for c in list(atlas3.members())[::11]:
        q = qap_of(c)
        report = verify_closure(q)
        assert report.ok and report.checked_pairs > 0
        for i in range(1, 8):
            assert len(q.cells[(i, 0)]) == len(q.cells[(i, 1)]) == 4


def test_cells_are_read_from_the_cell_id_array():
    q = qap_of(parse_label("C^{110}_{[001,100]}"))
    assert not q.cid.flags.writeable
    assert all(q.cell_of(k) == ck for ck, cell in q.cells.items() for k in cell.keys)
    assert sorted(k for cell in q.cells.values() for k in cell.keys) == list(range(64))
    assert q.pair(3) == ConjugatePair(q.maxbi.members[3], q.cells[(3, 1)], q.cells[(3, 0)])
    with pytest.raises(KeyError):
        retagged(q, [5], None).cell_of(5)


@pytest.mark.parametrize("outside", [-1, 64, Spinor.make("1", "1")])
def test_cell_of_rejects_keys_and_spinors_outside_the_partition(outside):
    # -1 must not wrap to key 63, 64 is past the 4^3 keys, and a p = 1
    # spinor packs to a valid p = 3 key
    q = qap_of(intrinsic_cartan(3))
    assert q.cell_of(63) == (7, 0) and q.cell_of(Spinor.make("001", "001")) == (1, 0)
    with pytest.raises(KeyError):
        q.cell_of(outside)


def test_cell_of_takes_a_numpy_key():
    """A key read from the partition's own arrays is a numpy integer."""
    q = qap_of(intrinsic_cartan(3))
    key = q.maxbi.keys[3]
    assert not isinstance(key, int)
    assert q.cell_of(key) == q.cell_of(int(key)) == (0, 1)
    with pytest.raises(KeyError):
        q.cell_of(q.maxbi.keys[3] + 61)


def test_a_labelling_that_breaks_closure_is_an_invariant_failure(monkeypatch):
    # swap W and W-hat of pair 3 before labelling: the build must fail,
    # naming the label, the cells and the spinor pair
    import qap.partition

    def swapped(c):
        g = all_maximal(c)
        g.comm = g.comm.copy()
        g.comm[3] = ~g.comm[3]
        return g

    monkeypatch.setattr(qap.partition, "all_maximal", swapped)
    with pytest.raises(InvariantError) as info:
        build_qap(parse_label("C^{110}_{[001,100]}"))
    head, witness = str(info.value).split(": ", 1)
    assert head == "cell labeling of C^{110}_{[001,100]} breaks closure"
    assert WITNESS.fullmatch(witness)


def test_degrade_only_closure_at_p1():
    q = build_qap(intrinsic_cartan(1))
    assert verify_closure(q).ok
    assert len(q.cells) == 4


def test_fault_injection_detected():
    c = parse_label("C^{110}_{[001,100]}")
    q = qap_of(c)
    for flip in (1, 5):
        report = verify_closure(flipped(q, flip))
        assert not report.ok and report.failures


def test_propagation_needed_regression():
    # these two broke under a naive per-pair labeling; they must build clean
    for label in ("C^{0}_{[11]}", "C^{1}_{[11]}"):
        q = build_qap(parse_label(label))
        assert verify_closure(q).ok


def test_cells_compose_as_xor_group(atlas2):
    for c in atlas2.members():
        q = qap_of(c)
        for (ka, kb) in itertools.combinations(sorted(q.cells), 2):
            target = (ka[0] ^ kb[0], ka[1] ^ kb[1])
            assert commutator_lands_in(q, ka, kb, target)


def test_quadruple_rule_lands_in_sqcap(atlas2):
    # for s1,s2 in one cell and t1,t2 in another, with both aligned pairs
    # anti-commuting, the quadruple bi-additive lies in B1 sqcap B2
    for c in atlas2.members():
        q = qap_of(c)
        p = q.p
        for (i1, e1), (i2, e2) in itertools.combinations(sorted(q.cells), 2):
            if i1 == 0 or i2 == 0:
                continue
            cell1, cell2 = q.cells[(i1, e1)], q.cells[(i2, e2)]
            target = q.maxbi.members[i1 ^ i2].elements.keys
            for s1, s2 in itertools.product(cell1.keys, repeat=2):
                for t1, t2 in itertools.product(cell2.keys, repeat=2):
                    if not omega(s1, t1, p) or not omega(s2, t2, p):
                        continue
                    assert (s1 ^ s2 ^ t1 ^ t2) in target


def test_abelianness_characterizes_the_coset_rule(atlas3):
    # within the commutant of a maximal bi-subalgebra, a subspace is
    # abelian exactly when its pairwise bi-additives stay inside it
    rng = __import__("random").Random(77)
    c = list(atlas3.members())[50]
    q = qap_of(c)
    for i in (1, 4, 6):
        b = q.maxbi.members[i].elements.keys
        w, w_hat = q.cells[(i, 1)], q.cells[(i, 0)]
        pair = sorted(w.keys | w_hat.keys)
        for _ in range(40):
            size = rng.choice((2, 3, 4))
            subset = rng.sample(pair, size)
            abelian = not any(omega(x, y, 3) for x, y in itertools.combinations(subset, 2))
            coset_rule = all(
                (x ^ y) in b for x, y in itertools.combinations(subset, 2)
            )
            assert abelian == coset_rule


# -- the array sweep against the reference pair loop -------------------------


@functools.lru_cache(maxsize=None)
def anti_commuting(p: int) -> tuple[frozenset[int], ...]:
    n = 1 << (2 * p)
    return tuple(
        frozenset(y for y in range(n) if omega(x, y, p)) for x in range(n)
    )


def witness(ka: CellKey, kb: CellKey, x: int, y: int, target: CellKey, p: int) -> str:
    return (
        f"[{cell_label(ka)}, {cell_label(kb)}]: "
        f"{spinor_of_key(x, p)} x {spinor_of_key(y, p)} -> "
        f"{spinor_of_key(x ^ y, p)} not in {cell_label(target)}"
    )


def reference_closure(q: QAPartition, max_failures: int = 1) -> ClosureReport:
    """The pure-Python pair loop that verify_closure replaced: every cell
    pair once, then the conjugate-partition inclusions against the center.
    Commutation is read from a table of omega instead of recomputed."""
    p = q.p
    anti = anti_commuting(p)
    checked = 0
    failures: list[str] = []

    def fail(msg: str) -> bool:
        failures.append(msg)
        return len(failures) >= max_failures

    keys = sorted(q.cells)
    for a_pos, ka in enumerate(keys):
        ia, ea = ka
        cell_a = q.cells[ka]
        for kb in keys[a_pos:]:
            ib, eb = kb
            cell_b = q.cells[kb]
            target = q.cells[(ia ^ ib, ea ^ eb)]
            for x in cell_a.keys:
                for y in cell_b.keys & anti[x]:
                    checked += 1
                    if (x ^ y) not in target.keys:
                        if fail(witness(ka, kb, x, y, (ia ^ ib, ea ^ eb), p)):
                            return ClosureReport(False, checked, failures)

    center = q.cells[(0, 1)]
    for i in range(1, 1 << p):
        w, w_hat = q.cells[(i, 1)], q.cells[(i, 0)]
        for src, other, tgt in ((w, center, w_hat), (w_hat, center, w), (w, w_hat, center)):
            for x in src.keys:
                for y in other.keys & anti[x]:
                    if (x ^ y) not in tgt.keys:
                        if fail(f"conjugate-partition violation at B_{i}"):
                            return ClosureReport(False, checked, failures)
    return ClosureReport(not failures, checked, failures)


WITNESS = re.compile(
    r"\[(B:\d+/eps:[01]), (B:\d+/eps:[01])\]: (S\[[01]+\|[01]+\]) x (S\[[01]+\|[01]+\]) "
    r"-> (S\[[01]+\|[01]+\]) not in (B:\d+/eps:[01])"
)


def parse_witness(line: str) -> tuple[CellKey, CellKey, int, int, CellKey]:
    """(cell of x, cell of y, x, y, target cell) from a closure-law witness."""
    m = WITNESS.fullmatch(line)
    assert m, line
    ka, kb, x, y, prod, target = m.groups()
    (x,), (y,), (prod,) = (SpinorSet.parse([s]).keys for s in (x, y, prod))
    assert prod == x ^ y, line
    cell = lambda text: tuple(int(part.split(":")[1]) for part in text.split("/"))
    return cell(ka), cell(kb), x, y, cell(target)


def assert_genuine(q: QAPartition, line: str) -> None:
    """The witness names an anti-commuting pair, its true cells, and a
    target cell that misses the product."""
    ka, kb, x, y, target = parse_witness(line)
    assert ka <= kb and q.cell_of(x) == ka and q.cell_of(y) == kb, line
    assert omega(x, y, q.p), line
    assert target == (ka[0] ^ kb[0], ka[1] ^ kb[1]), line
    assert (x ^ y) not in q.cells[target].keys, line


def within_cell_anti_pairs(q: QAPartition) -> int:
    """Unordered anti-commuting pairs inside one cell: the reference loop
    counts each of them twice, the sweep once."""
    anti = anti_commuting(q.p)
    return sum(len(cell.keys & anti[x]) for cell in q.cells.values() for x in cell.keys) // 2


def injections(q: QAPartition, rng: random.Random):
    """Every single flip, one swap of two keys between two non-center cells,
    then one moved key and one dropped key, each as a tampered partition.
    Flips and swaps keep every cell at its size, so they reach the closure
    sweep; a move or a drop stops at the partition check before it.  The
    identity key 0 commutes with everything, so moving or dropping it
    breaks no closure triple; it is never picked."""
    for i in range(1, 1 << q.p):
        yield f"flip B:{i}", flipped(q, i)
    ka, kb = rng.sample([k for k in sorted(q.cells) if k[0]], 2)
    x, y = (rng.choice(sorted(q.cells[k].keys)) for k in (ka, kb))
    yield f"swap {x} {ka}<->{y} {kb}", retagged(retagged(q, [x], kb), [y], ka)
    occupied = sorted(k for k, cell in q.cells.items() if len(cell) > 0)
    src = rng.choice(occupied)
    dst = rng.choice([k for k in sorted(q.cells) if k != src])
    moved = rng.choice(sorted(q.cells[src].keys - {0}))
    yield f"move {moved} {src}->{dst}", retagged(q, [moved], dst)
    src = rng.choice([k for k in occupied if k != (0, 1)])
    dropped = rng.choice(sorted(q.cells[src].keys - {0}))
    yield f"drop {dropped} from {src}", retagged(q, [dropped], None)


def reaches_sweep(q: QAPartition, what: str) -> bool:
    """Whether q passes the partition check, which only a move or a drop
    fails; such a q is reported by its partition fault alone, with 0
    pairs checked, at any limit."""
    fault = q.partition_fault()
    assert (fault is None) != bool(re.search(r" (move|drop) ", what)), what
    if fault is None:
        return True
    for limit in (1, 3, 1 << (4 * q.p)):
        assert verify_closure(q, limit) == ClosureReport(False, 0, [fault]), what
    return False


def assert_sweep_matches_reference(q: QAPartition, what: str, full: bool = True) -> bool:
    """ok always agrees and is returned; checked_pairs agrees on a pass.
    A failing run stops at an order-dependent pair, so with `full` both
    run to the end: the sweep reports every violating pair once, the loop
    reports a pair inside one cell in both orders and counts it twice.
    A partition fault stops the sweep before any pair, and fails."""
    if not reaches_sweep(q, what):
        return False
    fast, slow = verify_closure(q), reference_closure(q)
    assert fast.ok == slow.ok, what
    if fast.ok:
        assert fast.checked_pairs == slow.checked_pairs, what
        return True
    assert len(fast.failures) == 1 and fast.checked_pairs > 0, what
    assert_genuine(q, fast.failures[0])
    if not full:
        return False
    everything = 1 << (4 * q.p)
    fast, slow = verify_closure(q, everything), reference_closure(q, everything)
    assert fast.checked_pairs == slow.checked_pairs - within_cell_anti_pairs(q), what
    swept = set(fast.failures)
    looped = {line for line in slow.failures if WITNESS.fullmatch(line)}
    assert len(swept) == len(fast.failures) and swept <= looped, what
    for line in looped - swept:  # the mirror of a pair inside one cell
        ka, kb, x, y, target = parse_witness(line)
        assert ka == kb and x > y, line
        assert witness(ka, kb, y, x, target, q.p) in swept, line
    return False


def test_sweep_matches_reference_on_every_partition_to_p3():
    rng = random.Random(3)
    for p in (1, 2, 3):
        for n, c in enumerate(atlas(p).members()):
            q = qap_of(c)
            assert assert_sweep_matches_reference(q, c.label)
            if p == 3 and n % 27 == 0:
                for what, tampered in injections(q, rng):
                    assert not assert_sweep_matches_reference(tampered, f"{c.label} {what}")


def test_sweep_matches_reference_on_p4_partitions_and_injections():
    # 50 seeded partitions, each with all 15 single flips, one swap, one
    # moved key and one dropped key; a flip makes thousands of witnesses at p = 4, so the
    # run-to-the-end comparison of flips is left to the p = 3 test
    rng = random.Random(4)
    for c in rng.sample(list(atlas(4).members()), 50):
        q = qap_of(c)
        assert assert_sweep_matches_reference(q, c.label)
        for what, tampered in injections(q, rng):
            full = not what.startswith("flip")
            assert not assert_sweep_matches_reference(tampered, f"{c.label} {what}", full)


# -- the doubled row blocks against the 32-row sweep they replaced ------------


def row_block_closure(q: QAPartition, max_failures: int = 1) -> ClosureReport:
    """The sweep verify_closure replaced: the covered keys in blocks of 32
    rows, each row against every later covered key, with omega and the
    product's cell gathered pair by pair."""
    p, cid, max_failures = q.p, q.cid, max(max_failures, 1)
    failures: list[str] = []
    keys = np.flatnonzero(cid >= 0).astype(np.min_scalar_type(cid.size))
    checked = 0
    for r0 in range(0, len(keys), 32):
        xs, ys = keys[r0 : r0 + 32, None], keys[r0 + 1 :]
        anti = (omega(xs, ys, p) == 1) & (xs < ys)
        bad = np.flatnonzero(anti & (cid[xs ^ ys] != (cid[xs] ^ cid[ys])))
        for h in bad[: max_failures - len(failures)]:
            pair = (int(xs[h // ys.size, 0]), int(ys[h % ys.size]))
            (ka, x), (kb, y) = sorted((divmod(int(cid[k]), 2), k) for k in pair)
            failures.append(witness(ka, kb, x, y, (ka[0] ^ kb[0], ka[1] ^ kb[1]), p))
        if len(failures) >= max_failures:
            checked += int(np.count_nonzero(anti.ravel()[: h + 1]))
            return ClosureReport(False, checked, failures)
        checked += int(np.count_nonzero(anti))
    return ClosureReport(not failures, checked, failures)


def assert_sweep_matches_row_blocks(q: QAPartition, what: str, full: bool = True) -> None:
    """The same report, witness texts and stop-point count included, at a
    limit of one failure, of three and, with `full`, of every pair, on a
    partition that reaches the sweep."""
    if not reaches_sweep(q, what):
        return
    for limit in (1, 3, 1 << (4 * q.p))[: 3 if full else 2]:
        new, old = verify_closure(q, limit), row_block_closure(q, limit)
        assert (new.ok, new.checked_pairs, new.failures) == (
            old.ok, old.checked_pairs, old.failures
        ), f"{what} max_failures={limit}"


def test_doubled_sweep_matches_row_blocks_on_every_partition_to_p3():
    # a flip at p = 3 makes hundreds of witnesses, so every ninth partition
    # runs its flips to the end
    rng = random.Random(5)
    for p in (1, 2, 3):
        for n, c in enumerate(atlas(p).members()):
            q = qap_of(c)
            assert_sweep_matches_row_blocks(q, c.label)
            for what, tampered in injections(q, rng):
                full = p < 3 or n % 9 == 0 or not what.startswith("flip")
                assert_sweep_matches_row_blocks(tampered, f"{c.label} {what}", full)


def test_doubled_sweep_matches_row_blocks_on_p4_partitions():
    # the 50 partitions of the reference test above, with their injections;
    # a flip makes thousands of witnesses here, so flips stop at three
    rng = random.Random(4)
    for c in rng.sample(list(atlas(4).members()), 50):
        q = qap_of(c)
        assert_sweep_matches_row_blocks(q, c.label)
        for what, tampered in injections(q, rng):
            full = not what.startswith("flip")
            assert_sweep_matches_row_blocks(tampered, f"{c.label} {what}", full)


def test_doubled_sweep_matches_row_blocks_at_p5():
    # one partition per kind, each with three seeded flips, a swap, a move
    # and a drop: at p = 5 the sweep takes 128-row blocks
    rng = random.Random(6)
    for c in seeded_cartans(5, 6, 6):
        q = build_qap(c, verify=False)
        assert_sweep_matches_row_blocks(q, c.label)
        *flips, swapped, moved, dropped = injections(q, rng)
        for what, tampered in (*rng.sample(flips, 3), swapped, moved, dropped):
            full = not what.startswith("flip")
            assert_sweep_matches_row_blocks(tampered, f"{c.label} {what}", full)


def test_cached_sweep_tables_report_what_fresh_tables_report():
    # the sweep's per-width tables are built once and kept read-only; calls
    # interleaved over p = 3, 4 and 5, on passing and flipped partitions,
    # report exactly what a call with freshly built tables reports
    rng = random.Random(16)
    cases = []
    for p in (3, 4, 5):
        for c in seeded_cartans(p, 3, 16 + p):
            q = build_qap(c, verify=False)
            cases += [q, flipped(q, rng.randrange(1, 1 << p))]
    rng.shuffle(cases)
    fresh = []
    for q in cases:
        partition._sweep_tables.cache_clear()
        fresh.append(verify_closure(q, 3))
    assert sum(report.ok for report in fresh) == 9
    for q, report in zip(cases, fresh):
        assert verify_closure(q, 3) == report
    assert partition._sweep_tables.cache_info().currsize == 3
    for table in partition._sweep_tables(4):
        assert not table.flags.writeable


def test_identity_outside_the_center_fails_with_its_cell():
    # key 0 commutes with everything, so no anti-commuting pair reaches it:
    # the pair law alone passes it moved to (1,0), so the partition check
    # before the sweep names its cell, with 0 pairs checked at any limit
    q = qap_of(parse_label("C^{0}_{[100]}"))
    dropped = retagged(q, [0], None)
    moved = retagged(q, [0], (1, 0))
    assert reference_closure(moved).ok
    witness = "center S[000|000] lies in B:1/eps:0"
    for limit in (1, 5):
        assert verify_closure(moved, limit) == ClosureReport(False, 0, [witness])
    report = verify_closure(dropped)
    assert report.failures == ["S[000|000] has cell id -1, which names no cell"]


def test_partition_fault_checks_the_center_and_every_cell_size():
    # moving key 0 keeps 64 distinct keys in all, with 7 and 5 in the two cells
    q = qap_of(parse_label("C^{0}_{[100]}"))
    assert q.partition_fault() is None
    assert retagged(q, [0], (1, 0)).partition_fault() is not None


def test_partition_fault_names_the_failed_check_and_a_witness():
    q = qap_of(parse_label("C^{0}_{[100]}"))
    assert q.partition_fault() is None
    center_key = sorted(q.cartan.elements.keys)[1]
    outside = min(k for k in range(64) if k not in q.cartan.elements)
    i, e = q.cell_of(outside)
    assert retagged(q, [outside], None).partition_fault() == (
        f"{spinor_of_key(outside, 3)} has cell id -1, which names no cell"
    )
    assert retagged(q, [center_key], (2, 1)).partition_fault() == (
        f"center {spinor_of_key(center_key, 3)} lies in B:2/eps:1"
    )
    assert retagged(q, [outside], (0, 0)).partition_fault() == "B:0/eps:0 holds 1 keys, not 0"
    # a key moved to the other half of its pair: the lower cell id is named
    lo, n = min(((i, e), 3), ((i, 1 - e), 5))
    assert retagged(q, [outside], (i, 1 - e)).partition_fault() == (
        f"{cell_label(lo)} holds {n} keys, not 4"
    )


def test_dropped_key_never_reads_as_the_degrade_cell():
    # an uncovered spinor must fail as a key in no cell, not pass as cell (0,0)
    q = qap_of(intrinsic_cartan(3))
    for ck in sorted(q.cells):
        for k in sorted(q.cells[ck].keys):
            report = verify_closure(retagged(q, [k], None))
            witness = f"{spinor_of_key(k, 3)} has cell id -1, which names no cell"
            assert report == ClosureReport(False, 0, [witness])


def closure_intact(q: QAPartition) -> QAPartition:
    """q with index bit p flipped on every key that anti-commutes with key 1:
    the flip is XOR-linear and zero on the center, so the closure law holds
    on every pair, but the flipped cell ids name no cell."""
    keys = np.arange(q.cid.size, dtype=q.cid.dtype)
    return QAPartition(q.cartan, q.maxbi, q.cid ^ (omega(keys, 1, q.p) << (q.p + 1)))


@pytest.mark.parametrize("p,witness", [
    (2, "S[00|01] has cell id 11, which names no cell"),
    (5, "S[00000|00001] has cell id 67, which names no cell"),
])
def test_a_closure_intact_tamper_fails_at_the_partition_check(monkeypatch, p, witness):
    c = parse_label(f"C_[{'0' * p}]")
    tampered = closure_intact(build_qap(c, verify=False))
    x, y, cid = np.arange(4**p)[:, None], np.arange(4**p), tampered.cid
    assert (cid[x ^ y] == cid[x] ^ cid[y])[omega(x, y, p) == 1].all()
    assert verify_closure(tampered, 1 << (4 * p)) == ClosureReport(False, 0, [witness])
    # build_qap gates table, qap, coqa and connect on the same report
    real = partition.QAPartition
    monkeypatch.setattr(partition, "QAPartition", lambda *args: closure_intact(real(*args)))
    with pytest.raises(InvariantError) as info:
        build_qap(c)
    assert str(info.value) == f"cell labeling of {c.label} breaks closure: {witness}"


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_closed_form_pair_count_on_intrinsic_cartan(p):
    report = verify_closure(build_qap(intrinsic_cartan(p), verify=False))
    assert report.ok and not report.failures
    assert report.checked_pairs == (4**p - 1) * 4**p // 4


def test_exhaustive_closure_reaches_p6():
    report = verify_closure(build_qap(parse_label("C_[000000]"), verify=False))
    assert report.ok
    assert report.checked_pairs == (4**6 - 1) * 4**6 // 4 == 4_193_280


def test_conjugate_partition_inclusions_are_cells_of_the_sweep():
    # [W,C] in W-hat, [W-hat,C] in W and [W,W-hat] in C are the cell pairs
    # (i,1)x(0,1), (i,0)x(0,1) and (i,1)x(i,0), each with the XOR target
    for p in (1, 2, 3, 4):
        q = qap_of(intrinsic_cartan(p))
        for i in range(1, 1 << p):
            w, w_hat, center = (i, 1), (i, 0), (0, 1)
            for a, b, target in ((w, center, w_hat), (w_hat, center, w), (w, w_hat, center)):
                assert (a[0] ^ b[0], a[1] ^ b[1]) == target
                assert any(
                    omega(x, y, p) for x in q.cells[a].keys for y in q.cells[b].keys
                )
                assert commutator_lands_in(q, a, b, target)


def test_conjugate_partition_faults_are_caught_by_the_sweep():
    # swap one spinor of W(B_i) with one of W-hat(B_i): every cell keeps its
    # size, the swap breaks an inclusion, and the sweep names a pair of
    # cells from that inclusion
    q = qap_of(intrinsic_cartan(3))
    for i in range(1, 8):
        x, y = min(q.cells[(i, 1)].keys), min(q.cells[(i, 0)].keys)
        tampered = retagged(retagged(q, [x], (i, 0)), [y], (i, 1))
        looped = reference_closure(tampered, max_failures=99).failures
        assert any(f.startswith("conjugate-partition") for f in looped)
        report = verify_closure(tampered, max_failures=1 << 12)
        assert not report.ok
        named = {WITNESS.fullmatch(f).group(1, 2) for f in report.failures}
        w, w_hat, center = cell_label((i, 1)), cell_label((i, 0)), cell_label((0, 1))
        assert named & {(center, w), (center, w_hat), (w_hat, w_hat)}


def test_failure_witness_format_and_limit():
    c = parse_label("C^{110}_{[001,100]}")
    tampered = flipped(qap_of(c), 5)
    assert len(verify_closure(tampered).failures) == 1
    report = verify_closure(tampered, max_failures=3)
    assert not report.ok and len(report.failures) == 3
    assert str(report).splitlines()[1:] == report.failures
    for line in report.failures:
        assert_genuine(tampered, line)
    # a failing sweep stops at its last witness, in (x, y) order with x < y
    last = tuple(sorted(parse_witness(report.failures[-1])[2:4]))
    assert report.checked_pairs == sum(
        1 for pair in itertools.combinations(range(64), 2)
        if pair <= last and omega(*pair, 3)
    )
    assert report.failures[0] == (
        "[B:1/eps:1, B:5/eps:1]: S[001|000] x S[100|011] -> S[101|011] not in B:4/eps:0"
    )


# -- co-quotient views --------------------------------------------------------


def test_coquotient_reference_pairing():
    q = qap_of(intrinsic_cartan(3))
    view = coquotient_view(q, (1, 1))
    assert view.irregular == ((0, 1), (1, 0))  # the center pairs with W-hat(B_1)
    assert len(view.regular) == 6
    assert view.degrade == ((1, 1), (0, 0))


def test_coquotient_rejects_degrade_center():
    q = qap_of(intrinsic_cartan(3))
    with pytest.raises(ValueError):
        coquotient_view(q, (0, 1))


def test_coquotient_rejects_a_center_outside_the_partition():
    # an index outside 1..2^p - 1 or an eps outside {0, 1}
    q = qap_of(intrinsic_cartan(3))
    for cell in ((8, 1), (-1, 1), (1, 2)):
        with pytest.raises(KeyError, match="no such cell"):
            coquotient_view(q, cell)
    assert coquotient_view(q, (7, 0)).center == (7, 0)


def test_coquotient_conjugate_partition_law(atlas3):
    c = list(atlas3.members())[40]
    q = qap_of(c)
    center = (3, 1)
    view = coquotient_view(q, center)
    pairs = [view.irregular, *view.regular]
    for u, v in pairs:
        assert commutator_lands_in(q, u, center, v)
        assert commutator_lands_in(q, v, center, u)
        assert commutator_lands_in(q, u, v, center)


# -- splits and unions --------------------------------------------------------


def test_split_examples():
    q = qap_of(intrinsic_cartan(3))
    a, b = split_by_commutation(q.cells[(1, 1)], q.cells[(2, 1)])
    assert len(a) == 2 and len(b) == 2
    a, b = split_by_commutation(q.cells[(1, 1)], q.cells[(1, 1)])
    assert len(a) == 4 and len(b) == 0
    a, b = split_by_commutation(q.cells[(1, 1)], q.cells[(0, 1)])
    assert len(a) == 4 and len(b) == 0


def test_split_rejects_junk():
    q = qap_of(intrinsic_cartan(3))
    ragged = SpinorSet.parse(["S[000|001]", "S[011|001]"])  # not a sub-coset source
    with pytest.raises(ValueError):
        split_by_commutation(q.cells[(2, 1)], ragged)


def test_union_reference_cases():
    c = parse_label("C^{0}_{[100]}")
    q = qap_of(c)
    b1 = q.maxbi.members[1]
    assert CartanSubalgebra(b1.elements | q.cells[(1, 1)]) == intrinsic_cartan(3)
    assert CartanSubalgebra(b1.elements | q.cells[(1, 0)]) == parse_label("C^{1}_{[100]}")


def test_union_validates():
    q = qap_of(intrinsic_cartan(3))
    with pytest.raises(ValueError):
        CartanSubalgebra(q.maxbi.members[1].elements | q.cells[(2, 1)])


def test_union_is_cartan_exhaustive_p3(atlas3):
    # every (maximal bi-subalgebra, conditioned subspace) union across all
    # 135 partitions forms a Cartan subalgebra (structural validation)
    from qap.subalgebra import is_cartan

    for c in atlas3.members():
        q = qap_of(c)
        for i in range(1, 8):
            for eps in (0, 1):
                merged = q.maxbi.members[i].elements | q.cells[(i, eps)]
                assert is_cartan(merged)


def test_union_is_cartan_op_validates_and_returns(atlas3):
    c = list(atlas3.members())[100]
    q = qap_of(c)
    for i in range(1, 8):
        for eps in (0, 1):
            got = CartanSubalgebra(q.maxbi.members[i].elements | q.cells[(i, eps)])
            assert got.p == 3


# -- sequences ----------------------------------------------------------------


def test_sequence_validation():
    q = qap_of(intrinsic_cartan(3))
    good = DecompositionSequence(q, ((1, 0), (2, 1), (4, 0)))
    assert [len(s) for s in good.steps] == [4, 4, 4]
    with pytest.raises(ValueError):
        DecompositionSequence(q, ((1, 0), (2, 1)))
    with pytest.raises(ValueError):
        DecompositionSequence(q, ((0, 1), (2, 1), (4, 0)))
    with pytest.raises(ValueError):
        DecompositionSequence(q, ((1, 0), (2, 1), (3, 0)))  # 3 = 1 xor 2
    with pytest.raises(ValueError):
        DecompositionSequence(q, ((1, 0), (1, 1), (4, 0)))


# -- emission -----------------------------------------------------------------


def test_render_table_shape():
    text = render_table(qap_of(intrinsic_cartan(2)))
    lines = text.splitlines()
    assert lines[0] == "C_[00]"
    assert sum(1 for ln in lines if ln.startswith("B_") and "| W:" in ln) == 3
    assert sum(1 for ln in lines if ln.startswith("B_") and " = {" in ln) == 3


def test_qap_json_keys():
    import json

    payload = json.loads(qap_to_json(qap_of(intrinsic_cartan(2))))
    assert payload["label"] == "C_[00]"
    assert set(payload["cells"]) == {
        f"B:{i}/eps:{e}" for i in range(4) for e in (0, 1)
    }
    assert payload["cells"]["B:0/eps:0"] == []
    assert cell_label((3, 1)) == "B:3/eps:1"
