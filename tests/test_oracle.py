"""The batched matrix oracle against a per-pair reference, clean and under
injected faults in each rule it checks.  A fault in the realization that
leaves every matrix monomial is caught rule by rule, with the reference's
witness; one that does not, or an h_matrix that disagrees with the stack,
fails both sides, and the oracle names the matrix at fault."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import qap.oracle as oracle
import qap.spinor
import qap.transform
from qap.bitcore import BitWord
from qap.oracle import OracleReport, check_conjugations, check_products, run_oracle
from qap.spinor import (
    GaussianMatrix, PhasedSpinor, Spinor, bi_add, commutes, key_of, product, spinor_of_key,
)
from qap.transform import BasicTransform, conjugate, h_matrix

S = Spinor.parse


# ---------------------------------------------------------------------------
# reference: one pair at a time, every matrix rebuilt where it is used.  The
# Spinor-level rules read the key rules of qap.spinor and qap.transform, and
# the realization is read one key at a time through the qap.oracle module's
# realize, so a fault planted there reaches both sides.


def all_spinors(p: int) -> list[Spinor]:
    """Every spinor of width p; the list index is (alpha << p) | zeta."""
    return [spinor_of_key(k, p) for k in range(1 << (2 * p))]


def matrix(ps: PhasedSpinor | Spinor) -> GaussianMatrix:
    """One (phased) spinor's matrix, realized through the oracle's binding."""
    ps = ps if isinstance(ps, PhasedSpinor) else PhasedSpinor(0, ps)
    return oracle.realize(key_of(ps.body), ps.body.p).times_i_pow(ps.i_exp)


def reference_products(p: int, max_failures: int = 1) -> OracleReport:
    spinors = all_spinors(p)
    mats = {s: matrix(s) for s in spinors}
    checks = 0
    failures: list[str] = []
    for s, t in itertools.product(spinors, repeat=2):
        checks += 1
        lhs = mats[s] @ mats[t]
        if lhs != matrix(product(s, t)):
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
                m = matrix(s)
                lhs = (hd @ m) @ hm if factor.inverse else (hm @ m) @ hd
                if lhs != matrix(out).scaled(2):
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
    """One entry of target's matrix is off by one wherever the oracle
    realizes it, in its stack and in the reference alike; h_matrix keeps
    its own binding, so only the stack disagrees with it."""
    real = oracle.realize

    def realize(keys, p):
        m = real(keys, p)
        m.re[..., 0, -1] += np.asarray(keys) == key_of(target)
        return m

    monkeypatch.setattr(oracle, "realize", realize)


def sign_fault(target: Spinor, real):
    """real with the nonzero entry in row 0 of target's matrix negated: the
    matrix stays monomial, so the oracle's fast path must catch it."""
    def realize(keys, p):
        m = real(keys, p)
        sign = np.ones(m.re.shape[:-1] + (1,), dtype=np.int64)
        sign[..., 0, :] -= 2 * (np.asarray(keys) == key_of(target))[..., None]
        return GaussianMatrix(sign * m.re, sign * m.im)

    return realize


def inject_matrix_sign(monkeypatch, target: Spinor) -> None:
    """The sign fault wherever a qap module binds realize, so h_matrix
    realizes h from the same faulted matrix as the oracle's stack."""
    plant(monkeypatch, "realize", lambda real: sign_fault(target, real))


FAULTS = {
    "product_phase": lambda mp, p: inject_product_phase(mp, *_pair(p)),
    "commutes_flip": lambda mp, p: inject_commutes_flip(mp, _pair(p)[0]),
    "bi_add_body": lambda mp, p: inject_bi_add_body(mp, *_pair(p)),
    "conjugate_phase": lambda mp, p: inject_conjugate_phase(mp, *_pair(p)),
    "matrix_entry": lambda mp, p: inject_matrix_entry(mp, _pair(p)[1]),
    "matrix_sign": lambda mp, p: inject_matrix_sign(mp, _pair(p)[1]),
}


@pytest.mark.parametrize("max_failures", [1, 3])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("fault", [None, *FAULTS])
def test_batched_oracle_matches_reference(monkeypatch, fault, p, max_failures):
    if fault is not None:
        FAULTS[fault](monkeypatch, p)
    got = (check_products(p, max_failures), check_conjugations(p, max_failures))
    want = (reference_products(p, max_failures), reference_conjugations(p, max_failures))
    if fault == "matrix_entry":
        witness = f"realization fault: {_pair(p)[1]} is not a monomial matrix"
        assert got == (OracleReport(False, 0, [witness]),) * 2
        assert not want[0].ok and not want[1].ok
    else:
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
    elif fault in ("matrix_entry", "matrix_sign", "commutes_flip"):
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


# ---------------------------------------------------------------------------
# the monomial form, and the realization faults that stop the oracle before it


@pytest.mark.parametrize("fault,realization", [(None, False), ("matrix_sign", False), ("matrix_entry", True)])
def test_only_a_realization_fault_is_reported_as_one(monkeypatch, fault, realization):
    """A stack that stays monomial is checked rule by rule, the sign fault
    included; a non-monomial one stops both checks before any rule, with
    the matrix at fault as the witness.  Neither calls GaussianMatrix's
    matrix product."""
    products = []
    real = GaussianMatrix.__matmul__
    monkeypatch.setattr(GaussianMatrix, "__matmul__", lambda a, b: products.append(1) or real(a, b))
    if fault is not None:
        FAULTS[fault](monkeypatch, 2)
    got = (check_products(2, 3), check_conjugations(2, 3))
    assert products == []
    if realization:
        witness = f"realization fault: {_pair(2)[1]} is not a monomial matrix"
        assert got == (OracleReport(False, 0, [witness]),) * 2
        assert run_oracle(2) == OracleReport(False, 0, [witness])
    else:
        assert got == (reference_products(2, 3), reference_conjugations(2, 3))
        assert not any(f.startswith("realization fault") for r in got for f in r.failures)


@pytest.mark.parametrize("max_failures", [1, 3])
@pytest.mark.parametrize("p", [1, 2])
def test_an_h_matrix_fault_fails_the_conjugation_check(monkeypatch, p, max_failures):
    """h_matrix realizes h from its own realize binding; faulted there
    alone, it disagrees with the stack, so the conjugation check names that
    h and compares no rule, and the reference fails too."""
    target = _pair(p)[0]
    monkeypatch.setattr(qap.transform, "realize", sign_fault(target, qap.transform.realize))
    assert check_products(p) == OracleReport(True, 16**p)
    h = BasicTransform(key_of(target), p)
    assert check_conjugations(p, max_failures) == OracleReport(
        False, 0, [f"realization fault: sqrt(2) {h} is not I + i^c {target}"]
    )
    assert not reference_conjugations(p, max_failures).ok


def test_the_monomial_form_needs_units_in_a_permutation_pattern():
    stack = oracle.realize(np.arange(16), 2)
    col, ph = oracle._monomial(stack)
    rows, i_re, i_im = np.arange(4), np.array([1, 0, -1, 0]), np.array([0, 1, 0, -1])
    for k in range(16):
        assert (stack.re[k, rows, col[k]] == i_re[ph[k]]).all()
        assert (stack.im[k, rows, col[k]] == i_im[ph[k]]).all()
    doubled = GaussianMatrix(stack.re.copy(), stack.im.copy())
    doubled.re[[5, 9]] *= 2
    repeated = GaussianMatrix(stack.re.copy(), stack.im.copy())
    repeated.re[5, 0], repeated.im[5, 0] = stack.re[5, 1], stack.im[5, 1]
    assert oracle._monomial(doubled) == 5 and oracle._monomial(repeated) == 5


def test_a_passing_oracle_builds_no_word_objects_and_one_stack_per_check(monkeypatch):
    """Each check realizes the 4^p keys in one call and prints its witnesses
    from keys, so a pass constructs no BitWord and no Spinor."""
    made = []
    for cls in (BitWord, Spinor):
        real = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self, real=real: made.append(self) or real(self))
    stacks = []
    realize = oracle.realize
    monkeypatch.setattr(oracle, "realize", lambda keys, p: stacks.append(keys.tolist()) or realize(keys, p))
    assert run_oracle(2) == OracleReport(True, 3 * 16**2)
    assert made == [] and stacks == [list(range(16))] * 2
