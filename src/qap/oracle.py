"""Exhaustive cross-validation of the spinor calculus against the exact
matrix realization.  Everything here is integer arithmetic; a failure
report carries the first witness.

The realization of all 4^p spinors is built once per check and stacked
into one Gaussian-integer matrix of shape (4^p, 2^p, 2^p), indexed by the
packed key (alpha << p) | zeta.  Each check multiplies one matrix against
the whole stack, and the rules under test, spinor's own omega,
key_product and key_conjugate, run once over the array of all 4^p keys:
once per left spinor for products, once per h and direction for
conjugations.

A product with the stack is computed by gathers (gather_product): the
nonzero pattern of the one matrix is read from its dense form, each row
(column) padded to the largest nonzero count with zero coefficients, and
the product is the sum over those slots of coefficient times the gathered
rows (columns) of the stack.  That is exact for any matrix; it is fast
here because a spinor matrix has one nonzero per row and column, and an
h matrix at most two."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spinor import (
    GaussianMatrix, Spinor, key_conjugate, key_product, omega, spinor_of_key, to_matrix
)
from .transform import BasicTransform, h_matrix

ORACLE_GUARD_P = 3

# i^k = _I_RE[k] + i·_I_IM[k]
_I_RE = np.array([1, 0, -1, 0], dtype=np.int64)
_I_IM = np.array([0, 1, 0, -1], dtype=np.int64)


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


def all_spinors(p: int) -> list[Spinor]:
    """Every spinor of width p; the list index is (alpha << p) | zeta."""
    return [spinor_of_key(k, p) for k in range(1 << (2 * p))]


def _realize(spinors: list[Spinor]) -> GaussianMatrix:
    """The spinors' matrices, stacked in list order."""
    mats = [to_matrix(s) for s in spinors]
    return GaussianMatrix(np.stack([m.re for m in mats]), np.stack([m.im for m in mats]))


def _gather(stack: GaussianMatrix, e: np.ndarray, keys: np.ndarray) -> GaussianMatrix:
    """i^e times the stacked matrix of each key, in key order."""
    c, s = _I_RE[e % 4][:, None, None], _I_IM[e % 4][:, None, None]
    re, im = stack.re[keys], stack.im[keys]
    return GaussianMatrix(c * re - s * im, s * re + c * im)


def gather_product(m: GaussianMatrix, stack: GaussianMatrix, right: bool = False) -> GaussianMatrix:
    """m @ stack[k] for every k, or stack[k] @ m when right, exactly.

    Slot j of row r (column r when right) holds the position of its j-th
    nonzero, or of a zero entry once the row has no more nonzeros; so its
    coefficient is the entry itself, and a short row is padded with zero
    coefficients.  The product sums coefficient times gathered stack rows
    (columns) over the slots."""
    if right:
        m = GaussianMatrix(m.re.T, m.im.T)
    nonzero = (m.re != 0) | (m.im != 0)
    width = max(1, int(nonzero.sum(axis=1).max()))
    idx = np.argsort(~nonzero, axis=1, kind="stable")[:, :width]
    rows = np.arange(len(idx))[:, None]
    c_re, c_im = m.re[rows, idx], m.im[rows, idx]
    if not right:
        c_re, c_im = c_re[:, :, None], c_im[:, :, None]
    re = im = 0
    for j in range(width):
        sel = (..., idx[:, j]) if right else (..., idx[:, j], slice(None))
        a, b, g_re, g_im = c_re[:, j], c_im[:, j], stack.re[sel], stack.im[sel]
        re = re + a * g_re - b * g_im
        im = im + a * g_im + b * g_re
    return GaussianMatrix(re, im)


def _equal(a: GaussianMatrix, b: GaussianMatrix) -> np.ndarray:
    return ((a.re == b.re) & (a.im == b.im)).all(axis=(-2, -1))


def _is_zero(a: GaussianMatrix) -> np.ndarray:
    return ~(a.re.any(axis=(-2, -1)) | a.im.any(axis=(-2, -1)))


def check_products(p: int, max_failures: int = 1) -> OracleReport:
    """key_product and omega vs exact Kronecker matrices, all pairs; the
    product body must also be the bi-addition x ^ y."""
    spinors = all_spinors(p)
    stack = _realize(spinors)
    keys = np.arange(len(spinors), dtype=np.int64)
    checks = 0
    failures: list[str] = []
    for x, s in enumerate(spinors):
        m = GaussianMatrix(stack.re[x], stack.im[x])
        e, body = key_product(x, keys, p)
        comm = omega(x, keys, p) == 0
        sums_ok = body == (x ^ keys)
        st, ts = gather_product(m, stack), gather_product(m, stack, right=True)
        prod_ok = _equal(st, _gather(stack, e, body))
        comm_bad = comm != _is_zero(st - ts)
        anti_bad = ~comm & ~_is_zero(st + ts)
        for j in map(int, np.flatnonzero(~prod_ok | comm_bad | anti_bad | ~sums_ok)):
            t = spinors[j]
            if not prod_ok[j]:
                failures.append(f"product mismatch at {s} * {t}")
            if comm_bad[j]:
                failures.append(f"commutation mismatch at {s}, {t}")
            if anti_bad[j]:
                failures.append(f"anti-commutator does not vanish at {s}, {t}")
            if not sums_ok[j]:
                failures.append(f"bi_add disagrees with the product body at {s}, {t}")
            if len(failures) >= max_failures:
                return OracleReport(False, checks + j + 1, failures)
        checks += len(spinors)
    return OracleReport(not failures, checks, failures)


def check_conjugations(p: int, max_failures: int = 1) -> OracleReport:
    """key_conjugate vs h s h-dagger for every basic transformation and
    spinor, both directions; compared after scaling by 2 to stay within
    the Gaussian integers."""
    spinors = all_spinors(p)
    stack = _realize(spinors)
    keys = np.arange(len(spinors), dtype=np.int64)
    checks = 0
    failures: list[str] = []
    for hk in range(len(spinors)):
        h = BasicTransform(hk, p)
        hm = h_matrix(h)
        hd = hm.dagger()
        sandwiches = (
            gather_product(hd, gather_product(hm, stack), right=True),
            gather_product(hm, gather_product(hd, stack), right=True),
        )
        # ok[j, f]: direction f conjugates spinor j as its matrix sandwich does
        ok = np.empty((len(spinors), 2), dtype=bool)
        for f, lhs in enumerate(sandwiches):
            e, out = key_conjugate(hk, bool(f), keys, p)
            ok[:, f] = _equal(lhs, _gather(stack, e, out).scaled(2))
        for flat in map(int, np.flatnonzero(~ok)):
            j, f = divmod(flat, 2)
            factor = h.inverted() if f else h
            failures.append(f"conjugation mismatch: {factor} on {spinors[j]}")
            if len(failures) >= max_failures:
                return OracleReport(False, checks + flat + 1, failures)
        checks += ok.size
    return OracleReport(not failures, checks, failures)


def run_oracle(p: int) -> OracleReport:
    if p > ORACLE_GUARD_P:
        raise ValueError(f"oracle sweeps guarded to p <= {ORACLE_GUARD_P}")
    return check_products(p).merge(check_conjugations(p))
