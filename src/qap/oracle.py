"""Exhaustive cross-validation of the spinor calculus against the exact
matrix realization.  Everything here is integer arithmetic; a failure
report carries the first witness.

A run realizes all 4^p keys once, in one call to spinor.realize, a
Gaussian-integer stack of shape (4^p, 2^p, 2^p) indexed by the packed key
(alpha << p) | zeta and built factor by factor from the one-qubit
matrices, never from the rules it checks.  The rules under test,
spinor's own omega, key_product and key_conjugate, run once over the
arrays of all key pairs, and each check turns into one boolean mask.

The stack is certified once per run, from its entries alone, to be the
Pauli group, and both checks read that one certificate: each matrix is
monomial, read as col[k, r], the column of the one nonzero in row r,
and ph[k, r], its power of i, with col[k, r] = r ^ a and
ph[k, r] = c + 2 b.r (mod 4) on every row r (the (a, b, c) view of
Aaronson and Gottesman, PRA 70, 052328).  The group is closed under
products and conjugate transposes, and two of its elements are equal
when they agree on rows 0 and e_j (j < p), so a product, a gather of col
plus an addition of ph, is taken on those p + 1 rows only.  A conjugation
reads sqrt(2) h = I + i^c S_h (checked against h_matrices for every h),
so a sandwich scaled by 2, less 2 i^e S_out, is six group elements; as
the X^a Z^b are linearly independent, they sum to zero iff each class
(a, b) does.  Blocks of keys only bound memory.

A stack that is not monomial or not the Pauli group, or an h_matrices
that disagrees with it, is a realization fault: the run or the check
compares no rule and reports the matrix at fault as its one failure."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spinor import (
    GaussianMatrix, key_conjugate, key_product, key_self_parity, key_text, omega, realize,
)
from .transform import BasicTransform, h_matrices

ORACLE_GUARD_P = 5

# i^k as one cell, re + 16 im: exact for a sum of at most six units
_CELL = np.array([1, 16, -1, -16], dtype=np.int16)
_BLOCK_PAIRS = 1 << 11  # key pairs per block of either check
Certificate = tuple[int, np.ndarray, GaussianMatrix, tuple[np.ndarray, np.ndarray]]


@dataclass
class OracleReport:
    ok: bool
    checks: int
    failures: list[str] = field(default_factory=list)

    def merge(self, other: "OracleReport") -> "OracleReport":
        return OracleReport(
            self.ok and other.ok,
            self.checks + other.checks,
            self.failures + other.failures,
        )

    def __str__(self) -> str:
        status = "pass" if self.ok else "FAIL"
        lines = [f"oracle {status}: {self.checks} exact matrix checks"]
        lines += self.failures[:5]
        return "\n".join(lines)


def _realization_fault(text: str) -> OracleReport:
    return OracleReport(False, 0, [f"realization fault: {text}"])


def _report(bad: np.ndarray, texts, max_failures: int) -> OracleReport:
    """The witnesses of the flagged checks in order, texts(flat) naming
    those of one flat index; a run stopped at max_failures counts the
    checks up to the one that stopped it."""
    failures: list[str] = []
    for flat in map(int, np.flatnonzero(bad)):
        failures += texts(flat)
        if len(failures) >= max_failures:
            return OracleReport(False, flat + 1, failures)
    return OracleReport(not failures, bad.size, failures)


# ---------------------------------------------------------------------------
# the certificate: a matrix is (col, ph), row r holding i^ph[r] in column col[r]


def _monomial(stack: GaussianMatrix) -> tuple[np.ndarray, np.ndarray] | int:
    """(col, ph) of every stacked matrix if each one has exactly one nonzero
    per row and per column and that nonzero is 1, i, -1 or -i; otherwise
    the index of the first matrix that does not."""
    nonzero = (stack.re != 0) | (stack.im != 0)
    col = nonzero.argmax(axis=-1)
    re = np.take_along_axis(stack.re, col[..., None], -1)[..., 0]
    im = np.take_along_axis(stack.im, col[..., None], -1)[..., 0]
    unit = (nonzero.sum(axis=-1) == 1) & (nonzero.sum(axis=-2) == 1) & (np.abs(re) + np.abs(im) == 1)
    if not unit.all():
        return int(np.argmin(unit.all(axis=-1)))
    # int8: a column is below 2^p, and a phase sum stays small until taken mod 4 (& 3)
    return col.astype(np.int8), np.where(re != 0, 1 - re, 2 - im).astype(np.int8)


def _certified(p: int) -> OracleReport | Certificate:
    """(p, keys, stack, (col, ph)) of all 4^p keys once every realized matrix
    is certified to be X^a Z^b up to i^c, with a and c read on row 0 and
    bit j of b on row e_j; otherwise the realization fault."""
    keys = np.arange(1 << 2 * p, dtype=np.int64)
    stack = realize(keys, p)
    mono = _monomial(stack)
    if isinstance(mono, int):
        return _realization_fault(f"{key_text(mono, p)} is not a monomial matrix")
    col, ph = mono
    r = np.arange(1 << p)
    b = ph[:, 1 << np.arange(p)] - ph[:, :1] & 2  # 2 b_j
    r_bits = r[:, None] >> np.arange(p) & 1
    pauli = ((col == r ^ col[:, :1]) & (ph - ph[:, :1] - b @ r_bits.T & 3 == 0)).all(-1)
    if not pauli.all():
        return _realization_fault(f"{key_text(int(np.argmin(pauli)), p)} is not in the Pauli group")
    return p, keys, stack, mono


def _on_rows(m: tuple[np.ndarray, np.ndarray], p: int) -> tuple[np.ndarray, np.ndarray]:
    """(col, ph) on rows 0 and e_j (j < p) only, rows first: row 0 fixes a
    and c of a group element, row e_j bit j of b."""
    return tuple(np.ascontiguousarray(a[:, [0, *(1 << j for j in range(p))]].T) for a in m)


def _times(a, b: np.ndarray, full):
    """Rows of the monomial products A B: A given on some rows (axis 0) as
    a = (col, ph), B as b, the index of its matrix in the stack
    full = (col, ph).  Row r of A picks row col_a[r] of B."""
    (a_col, a_ph), (f_col, f_ph) = a, full
    at = b * f_col.shape[-1] + a_col
    return f_col.ravel().take(at), a_ph + f_ph.ravel().take(at)


def _vanishes(col: np.ndarray, ph: np.ndarray) -> np.ndarray:
    """Whether each sum of the group elements stacked on axis 0 is zero,
    every element given on rows 0 and e_j (axis 1): whether each class
    (a, b) sums to zero.  Summing by rows is not enough, since
    X^a (1 - Z_1)(1 - Z_2) vanishes on these rows but not on e_1 ^ e_2."""
    p = col.shape[1] - 1
    c = ph[:, 0]
    cls = col[:, 0].astype(np.int16)  # a + 2^p b, below 4^p
    for j in range(p):
        cls += (ph[:, 1 + j] - c & 2) * np.int16(1 << p + j - 1)
    sums = ((cls[:, None] == cls[None]) * _CELL.take(c & 3)[None]).sum(1, dtype=np.int16)
    return ~sums.any(0)


def _blocks(n_keys: int):
    step = max(1, _BLOCK_PAIRS // n_keys)
    return (slice(lo, lo + step) for lo in range(0, n_keys, step))


# ---------------------------------------------------------------------------
# products


def check_products(cert: Certificate, max_failures: int = 1) -> OracleReport:
    """key_product and omega vs exact Kronecker matrices, all pairs of the
    certified stack; the product body must also be the bi-addition x ^ y."""
    p, keys, _, mono = cert
    x, y = keys[:, None], keys[None, :]
    e, body = key_product(x, y, p)
    # S_x S_y against i^e S_body, and S_x S_y -/+ S_y S_x, on the rows
    col, ph = _on_rows(mono, p)
    prod_ok, commute, anti = (np.empty(body.shape, dtype=bool) for _ in range(3))
    for xs in _blocks(len(keys)):
        st_col, st_ph = _times((col[:, xs, None], ph[:, xs, None]), keys, mono)
        ts_col, ts_ph = _times((col[:, None], ph[:, None]), x[xs], mono)
        out = body[xs]
        prod_ok[xs] = ((st_col == col[:, out]) & (st_ph - ph[:, out] - e[xs] & 3 == 0)).all(0)
        same, d = st_col == ts_col, st_ph - ts_ph & 3
        commute[xs], anti[xs] = (same & (d == 0)).all(0), (same & (d == 2)).all(0)
    comm = omega(x, y, p) == 0
    comm_bad, anti_bad = comm != commute, ~comm & ~anti
    sums_ok = body == (x ^ y)

    def texts(flat: int) -> list[str]:
        i, j = divmod(flat, len(keys))
        s, t = key_text(i, p), key_text(j, p)
        return [text for bad, text in (
            (not prod_ok[i, j], f"product mismatch at {s} * {t}"),
            (comm_bad[i, j], f"commutation mismatch at {s}, {t}"),
            (anti_bad[i, j], f"anti-commutator does not vanish at {s}, {t}"),
            (not sums_ok[i, j], f"bi_add disagrees with the product body at {s}, {t}"),
        ) if bad]

    return _report(~prod_ok | comm_bad | anti_bad | ~sums_ok, texts, max_failures)


# ---------------------------------------------------------------------------
# conjugations


def check_conjugations(cert: Certificate, max_failures: int = 1) -> OracleReport:
    """key_conjugate vs h s h-dagger for every basic transformation and
    spinor of the certified stack, both directions; compared after scaling
    by 2 to stay within the Gaussian integers."""
    p, keys, stack, mono = cert
    n_keys = len(keys)
    coeff = 1 + 3 * key_self_parity(keys, p)  # i (-i)^(zeta.alpha), as in h_matrices
    hm, odd = h_matrices(keys, p), (coeff == 4)[:, None, None]
    agree = ((hm.re == np.eye(1 << p, dtype=np.int64) + np.where(odd, stack.re, -stack.im))
             & (hm.im == np.where(odd, stack.im, stack.re))).all(axis=(1, 2))
    if not agree.all():
        hk = int(np.argmin(agree))
        return _realization_fault(f"sqrt(2) {BasicTransform(hk, p)} is not I + i^c {key_text(hk, p)}")
    e, out = zip(*(key_conjugate(keys[:, None], inverse, keys[None, :], p)
                   for inverse in (False, True)))
    # ok[h, x, f]: direction f of h conjugates S_x as its matrix sandwich does;
    # (I + i^c L) S_x (I + i^-c R) - 2 i^e S_out, R the conjugate transpose
    # of L, must vanish.  A conjugate transpose holds i^-ph[r] at (col[r], r),
    # and col, r -> r ^ a, is its own inverse
    e, c = np.array(e, dtype=np.int8), coeff.astype(np.int8)
    col, ph = _on_rows(mono, p)
    dagger = (mono[0], -np.take_along_axis(mono[1], mono[0], -1))
    sandwiches = (((col, ph), dagger, c), (_on_rows(dagger, p), mono, -c))
    s = (col[:, None], ph[:, None])
    ok = np.empty((n_keys, n_keys, 2), dtype=bool)
    for hs in _blocks(n_keys):
        h = keys[hs, None]
        for f, ((l_col, l_ph), right, c_f) in enumerate(sandwiches):
            ls = _times((l_col[:, hs, None], l_ph[:, hs, None]), keys, mono)
            sr, lsr, o = _times(s, h, right), _times(ls, h, right), out[f][hs]
            target = (col[:, o], ph[:, o] + e[f, hs] + 2)
            c_h = c_f[hs, None]
            terms = (s, (ls[0], ls[1] + c_h), (sr[0], sr[1] - c_h), lsr, target, target)
            ok[hs, :, f] = _vanishes(*(np.stack(np.broadcast_arrays(*t)) for t in zip(*terms)))

    def texts(flat: int) -> list[str]:
        hk, rest = divmod(flat, 2 * n_keys)
        j, f = divmod(rest, 2)
        return [f"conjugation mismatch: {BasicTransform(hk, p, bool(f))} on {key_text(j, p)}"]

    return _report(~ok, texts, max_failures)


def run_oracle(p: int) -> OracleReport:
    if p > ORACLE_GUARD_P:
        raise ValueError(f"oracle sweeps guarded to p <= {ORACLE_GUARD_P}")
    cert = _certified(p)
    if isinstance(cert, OracleReport):
        return cert
    return check_products(cert).merge(check_conjugations(cert))
