"""Exhaustive cross-validation of the spinor calculus against the exact
matrix realization.  Everything here is integer arithmetic; a failure
report carries the first witness.

The realization of all 4^p spinors is built once per check and stacked
into one Gaussian-integer matrix of shape (4^p, 2^p, 2^p), indexed by the
packed key (alpha << p) | zeta.  Each check then multiplies one matrix
against the whole stack, while the symbolic rules under test still run
once per pair."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bitcore import BitWord
from .spinor import (
    GaussianMatrix,
    PhasedSpinor,
    Spinor,
    bi_add,
    commutes,
    key_of,
    product,
    to_matrix,
)
from .transform import BasicTransform, conjugate, h_matrix

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
    return [
        Spinor(BitWord(z, p), BitWord(a, p))
        for a in range(1 << p)
        for z in range(1 << p)
    ]


def _realize(spinors: list[Spinor]) -> GaussianMatrix:
    """The spinors' matrices, stacked in list order."""
    mats = [to_matrix(s) for s in spinors]
    return GaussianMatrix(np.stack([m.re for m in mats]), np.stack([m.im for m in mats]))


def _gather(stack: GaussianMatrix, results: list[PhasedSpinor]) -> GaussianMatrix:
    """i^k times the stacked matrix of each result's body, in result order."""
    idx = np.array([key_of(r.body) for r in results])
    k = np.array([r.i_exp for r in results])
    c, s = _I_RE[k][:, None, None], _I_IM[k][:, None, None]
    re, im = stack.re[idx], stack.im[idx]
    return GaussianMatrix(c * re - s * im, s * re + c * im)


def _equal(a: GaussianMatrix, b: GaussianMatrix) -> np.ndarray:
    return ((a.re == b.re) & (a.im == b.im)).all(axis=(-2, -1))


def _is_zero(a: GaussianMatrix) -> np.ndarray:
    return ~(a.re.any(axis=(-2, -1)) | a.im.any(axis=(-2, -1)))


def check_products(p: int, max_failures: int = 1) -> OracleReport:
    """product/commutes/bi_add vs exact Kronecker matrices, all pairs."""
    spinors = all_spinors(p)
    stack = _realize(spinors)
    checks = 0
    failures: list[str] = []
    for i, s in enumerate(spinors):
        m = GaussianMatrix(stack.re[i], stack.im[i])
        prods = [product(s, t) for t in spinors]
        comm = np.array([commutes(s, t) for t in spinors], dtype=bool)
        sums_ok = np.array(
            [bi_add(s, t) == pr.body for t, pr in zip(spinors, prods)], dtype=bool
        )
        st, ts = m @ stack, stack @ m
        prod_ok = _equal(st, _gather(stack, prods))
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
    """h s h-dagger vs matrices for every basic transformation and spinor;
    compared after scaling by 2 to stay within the Gaussian integers."""
    spinors = all_spinors(p)
    stack = _realize(spinors)
    checks = 0
    failures: list[str] = []
    for hs in spinors:
        h = BasicTransform(hs.zeta, hs.alpha)
        hm = h_matrix(h)
        hd = hm.dagger()
        factors = (h, h.inverted())
        sandwiches = ((hm @ stack) @ hd, (hd @ stack) @ hm)
        # ok[j, f]: factor f conjugates spinor j as its matrix sandwich does
        ok = np.empty((len(spinors), 2), dtype=bool)
        for f, (factor, lhs) in enumerate(zip(factors, sandwiches)):
            outs = [conjugate(factor, PhasedSpinor(0, s)) for s in spinors]
            ok[:, f] = _equal(lhs, _gather(stack, outs).scaled(2))
        for flat in map(int, np.flatnonzero(~ok)):
            j, f = divmod(flat, 2)
            failures.append(f"conjugation mismatch: {factors[f]} on {spinors[j]}")
            if len(failures) >= max_failures:
                return OracleReport(False, checks + flat + 1, failures)
        checks += ok.size
    return OracleReport(not failures, checks, failures)


def run_oracle(p: int) -> OracleReport:
    if p > ORACLE_GUARD_P:
        raise ValueError(f"oracle sweeps guarded to p <= {ORACLE_GUARD_P}")
    return check_products(p).merge(check_conjugations(p))
