"""The batched matrix oracle against a per-pair reference, clean and under
injected faults in each rule it checks."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import qap.oracle as oracle
import qap.spinor
import qap.transform
from qap.oracle import (
    OracleReport,
    all_spinors,
    check_conjugations,
    check_products,
    gather_product,
)
from qap.spinor import GaussianMatrix, PhasedSpinor, Spinor, bi_add, commutes, key_of, product
from qap.transform import BasicTransform, conjugate, h_matrix

S = Spinor.parse


# ---------------------------------------------------------------------------
# the gather product against dense matmul, on matrices that are not monomial


def sparse_gaussian(rng, n: int) -> GaussianMatrix:
    """Random n x n Gaussian integers, about half of them zero, with row 0
    zero, row 1 full and the last row holding two nonzeros."""
    re, im = rng.integers(-3, 4, size=(2, n, n)) * (rng.random((n, n)) < 0.5)
    re[0], im[0] = 0, 0
    re[1] = rng.choice([-2, -1, 1, 2], size=n)
    re[-1], im[-1] = 0, 0
    re[-1, 0], im[-1, 0], re[-1, -1] = 1, 3, -2
    return GaussianMatrix(re, im)


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("right", [False, True])
def test_gather_product_matches_dense_matmul(n, right):
    rng = np.random.default_rng(n + 8 * right)
    stack = GaussianMatrix(*rng.integers(-3, 4, size=(2, 5, n, n)))
    rows, cols = sparse_gaussian(rng, n), sparse_gaussian(rng, n)
    for m in (rows, GaussianMatrix(cols.re.T, cols.im.T)):
        got = gather_product(m, stack, right)
        for k in range(5):
            s = GaussianMatrix(stack.re[k], stack.im[k])
            assert GaussianMatrix(got.re[k], got.im[k]) == (s @ m if right else m @ s)


def test_gather_product_of_a_zero_matrix_is_zero():
    stack = GaussianMatrix(*np.ones((2, 3, 4, 4), dtype=np.int64))
    zero = np.zeros((4, 4), dtype=np.int64)
    for right in (False, True):
        out = gather_product(GaussianMatrix(zero, zero), stack, right)
        assert out.re.shape == (3, 4, 4) and out.is_zero


# ---------------------------------------------------------------------------
# reference: one pair at a time, every matrix rebuilt where it is used.  The
# Spinor-level rules read the key rules of qap.spinor and qap.transform, and
# the realization is read through the qap.oracle module, so a fault planted
# there reaches both sides.


def reference_products(p: int, max_failures: int = 1) -> OracleReport:
    spinors = all_spinors(p)
    mats = {s: oracle.to_matrix(s) for s in spinors}
    checks = 0
    failures: list[str] = []
    for s, t in itertools.product(spinors, repeat=2):
        checks += 1
        lhs = mats[s] @ mats[t]
        if lhs != oracle.to_matrix(product(s, t)):
            failures.append(f"product mismatch at {s} * {t}")
        st, ts = lhs, mats[t] @ mats[s]
        if commutes(s, t) != (st - ts).is_zero:
            failures.append(f"commutation mismatch at {s}, {t}")
        if not commutes(s, t) and not (st + ts).is_zero:
            failures.append(f"anti-commutator does not vanish at {s}, {t}")
        if bi_add(s, t) != product(s, t).body:
            failures.append(f"bi_add disagrees with the product body at {s}, {t}")
        if len(failures) >= max_failures:
            return OracleReport(False, checks, failures)
    return OracleReport(not failures, checks, failures)


def reference_conjugations(p: int, max_failures: int = 1) -> OracleReport:
    spinors = all_spinors(p)
    checks = 0
    failures: list[str] = []
    for hk in range(len(spinors)):
        h = BasicTransform(hk, p)
        hm = h_matrix(h)
        hd = hm.dagger()
        for s in spinors:
            for factor in (h, h.inverted()):
                checks += 1
                out = conjugate(factor, PhasedSpinor(0, s))
                m = oracle.to_matrix(s)
                lhs = (hd @ m) @ hm if factor.inverse else (hm @ m) @ hd
                if lhs != oracle.to_matrix(out).scaled(2):
                    failures.append(f"conjugation mismatch: {factor} on {s}")
                    if len(failures) >= max_failures:
                        return OracleReport(False, checks, failures)
    return OracleReport(not failures, checks, failures)


# ---------------------------------------------------------------------------
# faults: each corrupts one answer of one rule at width p.  A key rule takes
# an int or a numpy array of keys, so each fault adds a term that is nonzero
# only at its pair, and is planted wherever a qap module binds the rule.


def _pair(p: int) -> tuple[Spinor, Spinor]:
    spinors = all_spinors(p)
    return spinors[len(spinors) // 2 + 1], spinors[-2]


def plant(monkeypatch, name: str, make) -> None:
    real = getattr(qap.spinor, name)
    fake = make(real)
    for module in (qap.spinor, qap.transform, oracle):
        if vars(module).get(name) is real:
            monkeypatch.setattr(module, name, fake)


def at(x, y, x0: Spinor, y0: Spinor):
    """1 where the keys (x, y) are the pair (x0, y0), for ints or arrays."""
    return (x == key_of(x0)) & (y == key_of(y0))


def inject_product_phase(monkeypatch, s0: Spinor, t0: Spinor) -> None:
    def make(real):
        def key_product(x, y, p):
            e, key = real(x, y, p)
            return e + at(x, y, s0, t0), key

        return key_product

    plant(monkeypatch, "key_product", make)


def inject_commutes_flip(monkeypatch, s0: Spinor) -> None:
    """s0 reported to anti-commute with itself: both the commutator and the
    anti-commutator check must object, and so must the conjugation check,
    which reads the same omega for h[s0] on s0."""
    plant(monkeypatch, "omega", lambda real: lambda x, y, p: real(x, y, p) ^ at(x, y, s0, s0))


def inject_bi_add_body(monkeypatch, s0: Spinor, t0: Spinor) -> None:
    """The product body of (s0, t0) is off by one bit, so it is no longer
    the bi-addition of the pair."""
    def make(real):
        def key_product(x, y, p):
            e, key = real(x, y, p)
            return e, key ^ at(x, y, s0, t0)

        return key_product

    plant(monkeypatch, "key_product", make)


def inject_conjugate_phase(monkeypatch, h0: Spinor, s0: Spinor) -> None:
    """h'[h0] on s0 comes back with the wrong sign; h[h0] stays right."""
    def make(real):
        def key_conjugate(h, inverse, x, p):
            e, key = real(h, inverse, x, p)
            return e + 2 * (inverse & at(h, x, h0, s0)), key

        return key_conjugate

    plant(monkeypatch, "key_conjugate", make)


def inject_matrix_entry(monkeypatch, target: Spinor) -> None:
    """One entry of one spinor's matrix is off by one; a phased argument gets
    i^k times the corrupted matrix, as the realization is linear in phase."""
    real = oracle.to_matrix

    def to_matrix(ps):
        ps = ps if isinstance(ps, PhasedSpinor) else PhasedSpinor(0, ps)
        m = real(ps.body)
        if ps.body == target:
            m.re[0, -1] += 1
        return m.times_i_pow(ps.i_exp)

    monkeypatch.setattr(oracle, "to_matrix", to_matrix)


FAULTS = {
    "product_phase": lambda mp, p: inject_product_phase(mp, *_pair(p)),
    "commutes_flip": lambda mp, p: inject_commutes_flip(mp, _pair(p)[0]),
    "bi_add_body": lambda mp, p: inject_bi_add_body(mp, *_pair(p)),
    "conjugate_phase": lambda mp, p: inject_conjugate_phase(mp, *_pair(p)),
    "matrix_entry": lambda mp, p: inject_matrix_entry(mp, _pair(p)[1]),
}


@pytest.mark.parametrize("max_failures", [1, 3])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("fault", [None, *FAULTS])
def test_batched_oracle_matches_reference(monkeypatch, fault, p, max_failures):
    if fault is not None:
        FAULTS[fault](monkeypatch, p)
    got = (check_products(p, max_failures), check_conjugations(p, max_failures))
    want = (reference_products(p, max_failures), reference_conjugations(p, max_failures))
    assert got == want
    products, conjugations = got
    merged = products.merge(conjugations)
    if fault is None:
        assert merged.ok and merged.checks == 3 * 16**p and not merged.failures
    else:
        assert not merged.ok and merged.failures


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_each_fault_is_caught_by_the_right_check(monkeypatch, fault):
    FAULTS[fault](monkeypatch, 2)
    products, conjugations = check_products(2, 9), check_conjugations(2, 9)
    if fault == "conjugate_phase":
        assert products.ok and not conjugations.ok
    elif fault in ("matrix_entry", "commutes_flip"):
        assert not products.ok and not conjugations.ok
    else:
        assert not products.ok and conjugations.ok


def test_a_fault_in_the_shared_commutation_rule_is_caught(monkeypatch):
    """The oracle checks qap.spinor.omega, the rule that build_qap and the
    connector use, so one flipped pair there fails the product check."""
    s0, t0 = _pair(2)
    plant(monkeypatch, "omega", lambda real: lambda x, y, p: real(x, y, p) ^ at(x, y, s0, t0))
    report = check_products(2)
    assert not report.ok
    assert report.failures[0] == f"commutation mismatch at {s0}, {t0}"


def test_p3_product_injection_names_its_first_witness(monkeypatch):
    inject_product_phase(monkeypatch, S("S[001|011]"), S("S[010|101]"))
    report = check_products(3)
    # (alpha << 3 | zeta) is 25 for the left factor and 42 for the right one
    assert report == OracleReport(
        False, 25 * 64 + 42 + 1, ["product mismatch at S[001|011] * S[010|101]"]
    )
    assert str(report) == (
        "oracle FAIL: 1643 exact matrix checks\nproduct mismatch at S[001|011] * S[010|101]"
    )


def test_p3_conjugation_injection_names_its_first_witness(monkeypatch):
    inject_conjugate_phase(monkeypatch, S("S[011|110]"), S("S[101|001]"))
    # h index 6 << 3 | 3 = 51, spinor index 1 << 3 | 5 = 13, inverted factor last
    assert check_conjugations(3, max_failures=4) == OracleReport(
        False, 2 * 16**3, ["conjugation mismatch: h'[011|110] on S[101|001]"]
    )
    assert check_conjugations(3) == OracleReport(
        False, 51 * 128 + 2 * 13 + 2, ["conjugation mismatch: h'[011|110] on S[101|001]"]
    )


def test_fewer_failures_than_the_limit_still_fail(monkeypatch):
    """A run that stops short of max_failures must not report a pass."""
    inject_product_phase(monkeypatch, S("S[001|011]"), S("S[010|101]"))
    report = check_products(3, max_failures=5)
    assert report == OracleReport(False, 4096, ["product mismatch at S[001|011] * S[010|101]"])
    assert str(report).startswith("oracle FAIL: 4096 exact matrix checks\n")
    assert not report.merge(check_conjugations(3)).ok
