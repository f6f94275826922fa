"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import time

from conftest import atlas, qap_of
from data_su8_tables import TABLES
from qap.cli import main as cli_main
from qap.extension import classify_local, count_kind, enumerate_all, local_lift
from qap.oracle import run_oracle
from qap.partition import QAPartition, build_qap, verify_closure
from qap.spinor import PhasedSpinor, to_matrix
from qap.subalgebra import (
    SpinorSet,
    all_maximal,
    commuting_bisubalgebra,
    intrinsic_cartan,
    omega,
    parse_label,
    spinor_of_key,
    sqcap,
)
from qap.transform import (
    circuit_matrix,
    conjugate_by_circuit,
    connect,
    apply_to_cartan,
    apply_circuit,
    random_sequence,
    referential_cell,
)


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_criterion_1_cartan_counts():
    with criterion(1, "Cartan-count reproduction"):
        start = time.perf_counter()
        totals = {}
        for p in (1, 2, 3, 4):
            a = enumerate_all(p)
            totals[p] = a.total
            closed = 1
            for i in range(1, p + 1):
                closed *= (1 << i) + 1
            assert a.total == closed
        elapsed = time.perf_counter() - start
        assert totals == {1: 3, 2: 15, 3: 135, 4: 2295}
        a3 = enumerate_all(3)
        assert [len(a3.by_kind[k]) for k in range(4)] == [1, 14, 56, 64]
        assert [count_kind(3, k) for k in range(4)] == [1, 14, 56, 64]
        assert elapsed < 10.0, f"enumeration took {elapsed:.1f}s"


def test_criterion_2_golden_tables(capsys):
    with criterion(2, "su(8) golden tables"):
        import pathlib

        fixture_dir = pathlib.Path(__file__).parent / "fixtures"
        golden = {
            "C_[000]": ("table_C_000.txt", "C_[000]"),
            "C^{0}_{[100]}": ("table_C0_100.txt", "C^{0}_{[100]}"),
            "C^{110}_{[001,100]}": ("table_C110_001-100.txt", "C^{10}_{[001,100]}"),
            "C^{101000}_{[001,010,100]}": (
                "table_C101000_001-010-100.txt",
                "C^{100}_{[001,010,100]}",
            ),
        }
        for label, (fixture, cli_label) in golden.items():
            # byte-exact CLI reproduction of the stored canonical table
            code = cli_main(["table", cli_label])
            out = capsys.readouterr().out
            assert code == 0
            assert out == (fixture_dir / fixture).read_text(encoding="utf-8")

            # exact set equalities against the transcribed reference data
            q = qap_of(parse_label(label))
            data = TABLES[label]
            assert q.cartan.elements == SpinorSet.parse(data["center"].split())
            by_determinant = {
                q.maxbi.members[i].elements.keys: i for i in range(1, 8)
            }
            assert len(data["rows"]) == 7
            for b_txt, w_txt, w_hat_txt in data["rows"]:
                b_keys = SpinorSet.parse(b_txt.split()).keys
                assert b_keys in by_determinant, "determinant set missing"
                i = by_determinant[b_keys]
                assert q.cells[(i, 1)] == SpinorSet.parse(w_txt.split())
                assert q.cells[(i, 0)] == SpinorSet.parse(w_hat_txt.split())


def test_criterion_3_group_structure():
    with criterion(3, "maximal bi-subalgebra group structure"):
        for p in (1, 2, 3):
            for c in atlas(p).members():
                g = all_maximal(c)
                n = 1 << p
                assert len(g.members) == n
                assert len({b.elements.keys for b in g.members}) == n
                assert g.members[0].elements == c.elements
                for i, j in itertools.combinations(range(n), 2):
                    prod = sqcap(g.members[i], g.members[j])
                    assert prod.elements == g.members[i ^ j].elements
                    back = sqcap(g.members[j], g.members[i])
                    assert back.elements == prod.elements
                for i in range(n):
                    assert sqcap(g.members[i], g.members[i]).elements == c.elements
                    assert sqcap(g.members[0], g.members[i]).elements == g.members[i].elements
        # the intrinsic index law over all 64 ordered pairs
        g = all_maximal(intrinsic_cartan(3))
        for a in range(8):
            for b in range(8):
                got = sqcap(g.members[a], g.members[b])
                assert got.elements == g.members[a ^ b].elements


def test_criterion_4_quaternion_closure():
    with criterion(4, "quaternion closure of every partition"):
        for p in (1, 2, 3):
            for c in atlas(p).members():
                q = qap_of(c)
                report = verify_closure(q)
                assert report.ok, f"{c.label}: {report.failures}"
                assert q.is_partition()
        # 200 sampled subalgebras at p = 4
        rng = random.Random(20240)
        pool = list(atlas(4).members())
        for c in rng.sample(pool, 200):
            q = build_qap(c, verify=False)
            assert verify_closure(q).ok and q.is_partition()
        # fault injection: a single flipped label must be caught
        q = qap_of(parse_label("C^{110}_{[001,100]}"))
        for flip in range(1, 8):
            cid = q.cid ^ (q.cid >> 1 == flip)
            assert not verify_closure(QAPartition(q.cartan, q.maxbi, cid)).ok


def test_criterion_5_matrix_oracle():
    with criterion(5, "exact matrix-oracle equivalence"):
        start = time.perf_counter()
        for p in (1, 2, 3):
            report = run_oracle(p)
            assert report.ok, report.failures
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_6_unique_commuting_bisubalgebra():
    with criterion(6, "unique commuting bi-subalgebra"):
        p = 3
        spinors = [spinor_of_key(k, p) for k in range(1 << (2 * p))]
        for c in atlas(p).members():
            for s in spinors:
                got = commuting_bisubalgebra(s, c)
                from qap.subalgebra import key_of

                brute = frozenset(
                    k for k in c.elements.keys if not omega(k, key_of(s), p)
                )
                assert got.elements.keys == brute


def test_criterion_7_connector_contract():
    with criterion(7, "connector contract Q = E P R"):
        for p in (2, 3, 4):
            rng = random.Random(1000 + p)
            members = list(atlas(p).members())
            targets = [referential_cell(p, r) for r in range(1, p + 1)]
            for _ in range(100):
                c = rng.choice(members)
                seq = random_sequence(qap_of(c), rng)
                circ = connect(seq)  # internally asserts the full contract
                assert apply_to_cartan(circ, c) == intrinsic_cartan(p)
                for cell, target in zip(seq.steps, targets):
                    assert apply_circuit(circ, cell) == target
                if p == 2:
                    u, k = circuit_matrix(circ, p)
                    scale = 1 << k
                    for cell, target in zip(seq.steps, targets):
                        for s in cell.spinors():
                            image = conjugate_by_circuit(circ, PhasedSpinor(0, s))
                            assert image.body in target
                            lhs = (u @ to_matrix(s)) @ u.dagger()
                            assert lhs == to_matrix(image).scaled(scale)


def test_criterion_8_local_equivalence():
    with criterion(8, "local equivalence classes"):
        for p in (1, 2, 3):
            a = atlas(p)
            index = classify_local(a)
            assert len(index) == 1 << (p * (p - 1) // 2)
            assert sum(len(v) for v in index.values()) == a.total
            from qap.subalgebra import is_cartan

            for c in a.members():
                circuit, lifted = local_lift(c)
                assert circuit.is_local
                assert lifted.kind == p
                assert apply_to_cartan(circuit, c) == lifted
                assert is_cartan(lifted.elements, scan=False)
