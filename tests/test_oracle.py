"""The batched matrix oracle against a per-pair reference and an all-row
reference, clean and under injected faults in each rule it checks.  A
fault in the realization that leaves the stack in the Pauli group is
caught rule by rule, with the reference's witness; one that does not (a
non-monomial matrix, or a monomial one off the group), or an h_matrix that
disagrees with the stack, fails both sides, and the oracle names the
matrix at fault."""

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
        if commutes(s, t) != (st == ts):
            failures.append(f"commutation mismatch at {s}, {t}")
        if not commutes(s, t) and st != ts.times_i_pow(2):
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


def sign_fault(target: Spinor, real, rows=slice(0, 1)):
    """real with the nonzero entries in the given rows of target's matrix
    negated (row 0 by default): the matrix stays monomial.  Negating row 0
    alone leaves the Pauli group from p = 2 on; negating every row never
    does, so the oracle must catch that fault rule by rule."""
    def realize(keys, p):
        m = real(keys, p)
        sign = np.ones(m.re.shape[:-1] + (1,), dtype=np.int64)
        sign[..., rows, :] -= 2 * (np.asarray(keys) == key_of(target))[..., None, None]
        return GaussianMatrix(sign * m.re, sign * m.im)

    return realize


def inject_matrix_sign(monkeypatch, target: Spinor, rows=slice(0, 1)) -> None:
    """The sign fault wherever a qap module binds realize, so h_matrix
    realizes h from the same faulted matrix as the oracle's stack."""
    plant(monkeypatch, "realize", lambda real: sign_fault(target, real, rows))


FAULTS = {
    "product_phase": lambda mp, p: inject_product_phase(mp, *_pair(p)),
    "commutes_flip": lambda mp, p: inject_commutes_flip(mp, _pair(p)[0]),
    "bi_add_body": lambda mp, p: inject_bi_add_body(mp, *_pair(p)),
    "conjugate_phase": lambda mp, p: inject_conjugate_phase(mp, *_pair(p)),
    "matrix_entry": lambda mp, p: inject_matrix_entry(mp, _pair(p)[1]),
    "matrix_sign": lambda mp, p: inject_matrix_sign(mp, _pair(p)[1]),
    "matrix_negated": lambda mp, p: inject_matrix_sign(mp, _pair(p)[1], slice(None)),
}


def realization_witness(fault: str | None, p: int) -> str | None:
    """The oracle's one failure under a fault that stops it before any rule,
    or None where it must compare rule by rule."""
    if fault == "matrix_entry":
        return f"realization fault: {_pair(p)[1]} is not a monomial matrix"
    if fault == "matrix_sign" and p >= 2:
        return f"realization fault: {_pair(p)[1]} is not in the Pauli group"
    return None


def both_checks(p: int, max_failures: int = 1) -> tuple[OracleReport, OracleReport]:
    """The two checks on one certificate, as run_oracle runs them, or the
    realization fault that stops the run in place of each."""
    cert = oracle._certified(p)
    if isinstance(cert, OracleReport):
        return cert, cert
    return check_products(cert, max_failures), check_conjugations(cert, max_failures)


@pytest.mark.parametrize("max_failures", [1, 3])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("fault", [None, *FAULTS])
def test_batched_oracle_matches_reference(monkeypatch, fault, p, max_failures):
    if fault is not None:
        FAULTS[fault](monkeypatch, p)
    got = both_checks(p, max_failures)
    want = (reference_products(p, max_failures), reference_conjugations(p, max_failures))
    witness = realization_witness(fault, p)
    if witness is not None:
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
    products, conjugations = both_checks(2, 9)
    if fault == "conjugate_phase":
        assert products.ok and not conjugations.ok
    elif fault in ("matrix_entry", "matrix_sign", "matrix_negated", "commutes_flip"):
        assert not products.ok and not conjugations.ok
    else:
        assert not products.ok and conjugations.ok


def test_a_fault_in_the_shared_commutation_rule_is_caught(monkeypatch):
    """The oracle checks qap.spinor.omega, the rule that build_qap and the
    connector use, so one flipped pair there fails the product check."""
    s0, t0 = _pair(2)
    plant(monkeypatch, "omega", lambda real: lambda x, y, p: real(x, y, p) ^ at(x, y, s0, t0))
    report = check_products(oracle._certified(2))
    assert not report.ok
    assert report.failures[0] == f"commutation mismatch at {s0}, {t0}"


def test_p3_product_injection_names_its_first_witness(monkeypatch):
    inject_product_phase(monkeypatch, S("S[001|011]"), S("S[010|101]"))
    report = check_products(oracle._certified(3))
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
    cert = oracle._certified(3)
    assert check_conjugations(cert, max_failures=4) == OracleReport(
        False, 2 * 16**3, ["conjugation mismatch: h'[011|110] on S[101|001]"]
    )
    assert check_conjugations(cert) == OracleReport(
        False, 51 * 128 + 2 * 13 + 2, ["conjugation mismatch: h'[011|110] on S[101|001]"]
    )


def test_fewer_failures_than_the_limit_still_fail(monkeypatch):
    """A run that stops short of max_failures must not report a pass."""
    inject_product_phase(monkeypatch, S("S[001|011]"), S("S[010|101]"))
    cert = oracle._certified(3)
    report = check_products(cert, max_failures=5)
    assert report == OracleReport(False, 4096, ["product mismatch at S[001|011] * S[010|101]"])
    assert str(report).startswith("oracle FAIL: 4096 exact matrix checks\n")
    assert not report.merge(check_conjugations(cert)).ok


# ---------------------------------------------------------------------------
# the certificate, and the realization faults that stop the oracle before it


@pytest.mark.parametrize("fault,realization", [
    (None, False), ("matrix_negated", False), ("matrix_sign", True), ("matrix_entry", True),
])
def test_only_a_realization_fault_is_reported_as_one(monkeypatch, fault, realization):
    """A stack that stays in the Pauli group is checked rule by rule, the
    negated matrix included; a non-monomial one, or a monomial one off the
    group such as the row-0 sign fault at p = 2, stops both checks before
    any rule, with the matrix at fault as the witness.  Neither calls
    GaussianMatrix's matrix product."""
    products = []
    real = GaussianMatrix.__matmul__
    monkeypatch.setattr(GaussianMatrix, "__matmul__", lambda a, b: products.append(1) or real(a, b))
    if fault is not None:
        FAULTS[fault](monkeypatch, 2)
    got = both_checks(2, 3)
    assert products == []
    witness = realization_witness(fault, 2)
    assert (witness is not None) == realization
    if realization:
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
    cert = oracle._certified(p)
    assert check_products(cert) == OracleReport(True, 16**p)
    h = BasicTransform(key_of(target), p)
    assert check_conjugations(cert, max_failures) == OracleReport(
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


def test_a_passing_oracle_builds_no_word_objects_and_one_stack_per_run(monkeypatch):
    """A run realizes the 4^p keys in one call and certifies that stack once
    for both checks, the conjugation check gates all 4^p h matrices in one
    more, and witnesses print from keys, so a pass constructs no BitWord
    and no Spinor."""
    made = []
    for cls in (BitWord, Spinor):
        real = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self, real=real: made.append(self) or real(self))
    stacks, gates = [], []
    realize, h_matrices = oracle.realize, oracle.h_matrices
    monkeypatch.setattr(oracle, "realize", lambda keys, p: stacks.append(keys.tolist()) or realize(keys, p))
    monkeypatch.setattr(oracle, "h_matrices", lambda keys, p: gates.append(keys.tolist()) or h_matrices(keys, p))
    assert run_oracle(2) == OracleReport(True, 3 * 16**2)
    assert made == [] and stacks == [list(range(16))] and gates == [list(range(16))]


def test_a_monomial_stack_off_the_pauli_group_is_a_realization_fault(monkeypatch):
    """S[01|01] with rows 2 and 3 swapped is still monomial, but its columns
    are no longer r ^ a, so the certificate stops both checks there."""
    real = oracle.realize

    def realize(keys, p):
        m = real(keys, p)
        hit = np.asarray(keys) == 5
        m.re[hit] = m.re[hit][:, [0, 1, 3, 2]]
        return m

    monkeypatch.setattr(oracle, "realize", realize)
    witness = "realization fault: S[01|01] is not in the Pauli group"
    assert oracle._certified(2) == OracleReport(False, 0, [witness])
    assert str(run_oracle(2)) == f"oracle FAIL: 0 exact matrix checks\n{witness}"


# ---------------------------------------------------------------------------
# sums compared by class: the p + 1 rows fix a group element, not a sum of them


def trap_terms() -> tuple[np.ndarray, np.ndarray]:
    """(1 - Z_1)(1 - Z_2) = S[00|00] - S[01|00] - S[10|00] + S[11|00], as four
    group elements on rows 0, e_1 and e_2, where their sum is zero; on row
    e_1 ^ e_2 it is 4."""
    signs = np.array([1, -1, -1, 1])
    stack = oracle.realize(np.arange(4), 2)
    assert (signs[:, None, None] * stack.re).sum(0).tolist() == [[0] * 4] * 3 + [[0, 0, 0, 4]]
    col, ph = oracle._monomial(stack)
    rows = [0, 1, 2]
    return col[:, rows], (ph + 1 - signs[:, None])[:, rows]


def rowwise_vanishes(col: np.ndarray, ph: np.ndarray) -> np.ndarray:
    """The unsound compare: the terms summed entry by entry, on the given
    rows only."""
    same = col[:, None] == col[None]
    return ~(same * oracle._CELL.take(ph & 3)[None]).sum(1).any((0, 1))


def test_a_sum_that_vanishes_on_the_p_plus_1_rows_is_not_zero():
    assert not oracle._vanishes(*trap_terms())
    col, ph = trap_terms()
    assert oracle._vanishes(np.concatenate([col, col]), np.concatenate([ph, ph + 2]))


def test_a_row_wise_compare_fails_the_trap(monkeypatch):
    """The mutation the trap guards against: compared row by row on rows 0
    and e_j, the trap sums to zero, so the trap test must fail."""
    assert rowwise_vanishes(*trap_terms())
    monkeypatch.setattr(oracle, "_vanishes", rowwise_vanishes)
    with pytest.raises(AssertionError):
        test_a_sum_that_vanishes_on_the_p_plus_1_rows_is_not_zero()


# ---------------------------------------------------------------------------
# the all-row reference: every product and sandwich on all 2^p rows, each
# sandwich's terms added into a dense accumulator, behind the oracle's own
# certificate and a per-h h_matrix gate


# i^k as one accumulator cell, re + 16 im
_CELL = np.array([1, 16, -1, -16], dtype=np.int16)
# accumulator cells per block of h
_BLOCK_CELLS = 1 << 16


def _times(a, b):
    """The monomial product a b, broadcast over the leading axes: row r of a
    picks row col_a[r] of b."""
    (a_col, a_ph), (b_col, b_ph) = a, b
    return np.take_along_axis(b_col, a_col, -1), a_ph + np.take_along_axis(b_ph, a_col, -1)


def _dagger(m):
    """The conjugate transpose: row col[r] holds i^-ph[r] in column r."""
    col, ph = m
    inv = np.argsort(col, axis=-1)
    return inv, -np.take_along_axis(ph, inv, -1)


def _sandwich_zero(s, left, right, c, target):
    """Is (I + i^c L) S_x (I + i^-c R) equal to 2 target, for a block of h
    (axis 0) and every spinor x (axis 1)?  Its four monomial terms, and the
    target twice with its sign flipped, are added into one accumulator per
    (h, x); |re|, |im| <= 6, so a cell is zero only when both parts are."""
    ls, sr = _times(left, s), _times(s, right)
    terms = ((s, 0), (ls, c), (sr, -c), (_times(ls, right), 0), (target, 2), (target, 2))
    n = s[0].shape[-1]
    rows = np.arange(target[0].size).reshape(target[0].shape) * n
    acc = np.zeros(rows.size * n, dtype=np.int16)
    for (t_col, t_ph), shift in terms:
        cells = np.broadcast_to(_CELL[(t_ph + shift) % 4], rows.shape)
        np.add.at(acc, (rows + t_col).ravel(), cells.ravel())
    return ~acc.reshape(*rows.shape[:2], -1).any(-1)


def allrow_products(p: int, max_failures: int = 1) -> OracleReport:
    cert = oracle._certified(p)
    if isinstance(cert, OracleReport):
        return cert
    _, keys, _, (col, ph) = cert
    x, y = keys[:, None], keys[None, :]
    e, body = qap.spinor.key_product(x, y, p)
    mx, my = (col[:, None], ph[:, None]), (col[None], ph[None])
    st_col, st_ph = _times(mx, my)
    ts_col, ts_ph = _times(my, mx)
    prod_ok = ((st_col == col[body]) & ((st_ph - ph[body] - e[..., None]) % 4 == 0)).all(-1)
    same, d = st_col == ts_col, (st_ph - ts_ph) % 4
    comm = qap.spinor.omega(x, y, p) == 0
    comm_bad = comm != (same & (d == 0)).all(-1)
    anti_bad = ~comm & ~(same & (d == 2)).all(-1)
    sums_ok = body == (x ^ y)

    def texts(flat: int) -> list[str]:
        i, j = divmod(flat, len(keys))
        s, t = spinor_of_key(i, p), spinor_of_key(j, p)
        return [text for bad, text in (
            (not prod_ok[i, j], f"product mismatch at {s} * {t}"),
            (comm_bad[i, j], f"commutation mismatch at {s}, {t}"),
            (anti_bad[i, j], f"anti-commutator does not vanish at {s}, {t}"),
            (not sums_ok[i, j], f"bi_add disagrees with the product body at {s}, {t}"),
        ) if bad]

    return oracle._report(~prod_ok | comm_bad | anti_bad | ~sums_ok, texts, max_failures)


def allrow_conjugations(p: int, max_failures: int = 1) -> OracleReport:
    cert = oracle._certified(p)
    if isinstance(cert, OracleReport):
        return cert
    _, keys, stack, mono = cert
    n_keys = len(keys)
    coeff = 1 + 3 * qap.spinor.key_self_parity(keys, p)
    odd = (coeff == 4)[:, None, None]
    hms = [h_matrix(BasicTransform(hk, p)) for hk in range(n_keys)]
    eye = np.eye(1 << p, dtype=np.int64)
    agree = ((np.stack([m.re for m in hms]) == eye + np.where(odd, stack.re, -stack.im))
             & (np.stack([m.im for m in hms]) == np.where(odd, stack.im, stack.re))).all(axis=(1, 2))
    if not agree.all():
        h = BasicTransform(int(np.argmin(agree)), p)
        witness = f"realization fault: sqrt(2) {h} is not I + i^c {spinor_of_key(h.key, p)}"
        return OracleReport(False, 0, [witness])
    e, out = zip(*(qap.spinor.key_conjugate(keys[:, None], inverse, keys[None, :], p)
                   for inverse in (False, True)))
    col, ph = mono
    s, dagger = (col[None], ph[None]), _dagger(mono)
    ok = np.empty((n_keys, n_keys, 2), dtype=bool)
    step = max(1, _BLOCK_CELLS // (n_keys << 2 * p))
    for lo in range(0, n_keys, step):
        hs = slice(lo, lo + step)
        for f, (left, right, c) in enumerate(((mono, dagger, coeff), (dagger, mono, -coeff))):
            left, right = ((m_col[hs, None], m_ph[hs, None]) for m_col, m_ph in (left, right))
            target = (col[out[f][hs]], ph[out[f][hs]] + e[f][hs, :, None])
            ok[hs, :, f] = _sandwich_zero(s, left, right, c[hs, None, None], target)

    def texts(flat: int) -> list[str]:
        hk, rest = divmod(flat, 2 * n_keys)
        j, f = divmod(rest, 2)
        return [f"conjugation mismatch: {BasicTransform(hk, p, bool(f))} on {spinor_of_key(j, p)}"]

    return oracle._report(~ok, texts, max_failures)


@pytest.mark.parametrize("p,fault", [(3, None), (4, None), *((3, f) for f in sorted(FAULTS))])
def test_the_p_plus_1_row_checks_equal_the_all_row_reference(monkeypatch, p, fault):
    if fault is not None:
        FAULTS[fault](monkeypatch, p)
    got = both_checks(p, 3)
    assert got == (allrow_products(p, 3), allrow_conjugations(p, 3))
    assert got[0].merge(got[1]).ok == (fault is None)
