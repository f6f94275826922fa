"""Exhaustive cross-validation of the spinor calculus against the exact
matrix realization.  Everything here is integer arithmetic; a failure
report carries the first witness.

Each check realizes all 4^p keys in one call to spinor.realize, a
Gaussian-integer stack of shape (4^p, 2^p, 2^p) indexed by the packed key
(alpha << p) | zeta and built factor by factor from the one-qubit
matrices, never from the rules it checks.  The rules under test,
spinor's own omega, key_product and key_conjugate, run once over the
arrays of all key pairs, and each check turns into one boolean mask over
them.

Every realized spinor matrix is monomial: each row and each column holds
exactly one nonzero, a unit of Z[i].  That is checked exactly on the
realized stack, which is then read as col[k, r], the column of the
nonzero in row r, and ph[k, r], its power of i.  A product of two
monomial matrices is a gather of col plus an addition of ph mod 4, with no
multiply, so the products run over all pairs at once.  A conjugation reads
sqrt(2) h = I + i^c S_h (checked against h_matrix for every h), so each
sandwich is four monomial terms; they are added into one integer
accumulator per (h, spinor) together with -2 i^e S_out, and must cancel.

A stack that is not monomial, or an h_matrix that disagrees with it, is a
realization fault: the check compares no rule and reports the matrix at
fault as its one failure, with 0 checks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spinor import (
    GaussianMatrix, key_conjugate, key_product, key_self_parity, key_text, omega, realize,
)
from .transform import BasicTransform, h_matrix

ORACLE_GUARD_P = 4

# i^k as one accumulator cell, re + 16 im
_CELL = np.array([1, 16, -1, -16], dtype=np.int16)
# accumulator cells per block of h in the conjugation check; at p = 3 a
# block's arrays then stay near 1 MB, so the oracle's peak memory barely moves
_BLOCK_CELLS = 1 << 16


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
# monomial form: a matrix is (col, ph), row r holding i^ph[r] in column col[r]


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
    # int8 keeps the pair arrays small: a column is below 2^p, and a phase
    # sum of at most three factors stays below 10 until it is taken mod 4
    return col.astype(np.int8), np.where(re != 0, 1 - re, 2 - im).astype(np.int8)


def _times(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]):
    """The monomial product a b, broadcast over the leading axes: row r of a
    picks row col_a[r] of b."""
    (a_col, a_ph), (b_col, b_ph) = a, b
    return np.take_along_axis(b_col, a_col, -1), a_ph + np.take_along_axis(b_ph, a_col, -1)


def _dagger(m: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The conjugate transpose: row col[r] holds i^-ph[r] in column r."""
    col, ph = m
    inv = np.argsort(col, axis=-1)
    return inv, -np.take_along_axis(ph, inv, -1)


# ---------------------------------------------------------------------------
# products


def check_products(p: int, max_failures: int = 1) -> OracleReport:
    """key_product and omega vs exact Kronecker matrices, all pairs; the
    product body must also be the bi-addition x ^ y."""
    keys = np.arange(1 << 2 * p, dtype=np.int64)
    mono = _monomial(realize(keys, p))
    if isinstance(mono, int):
        return _realization_fault(f"{key_text(mono, p)} is not a monomial matrix")
    col, ph = mono
    x, y = keys[:, None], keys[None, :]
    e, body = key_product(x, y, p)
    # S_x S_y against i^e S_body, and S_x S_y -/+ S_y S_x
    mx, my = (col[:, None], ph[:, None]), (col[None], ph[None])
    st_col, st_ph = _times(mx, my)
    ts_col, ts_ph = _times(my, mx)
    prod_ok = ((st_col == col[body]) & ((st_ph - ph[body] - e[..., None]) % 4 == 0)).all(-1)
    same, d = st_col == ts_col, (st_ph - ts_ph) % 4
    comm = omega(x, y, p) == 0
    comm_bad = comm != (same & (d == 0)).all(-1)
    anti_bad = ~comm & ~(same & (d == 2)).all(-1)
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


def _sandwich_zero(s, left, right, c, target):
    """Is (I + i^c L) S_x (I + i^-c R) equal to 2 target, for a block of h
    (axis 0) and every spinor x (axis 1)?  With R the conjugate transpose
    of L, the left side is one direction of the sandwich h S_x h-dagger
    scaled by 2.  Its four monomial terms, and the target twice with its
    sign flipped, are added into one accumulator per (h, x).  A cell
    holds re + 16 im, and |re|, |im| <= 6, so it is zero only when both
    parts are."""
    ls, sr = _times(left, s), _times(s, right)
    terms = ((s, 0), (ls, c), (sr, -c), (_times(ls, right), 0), (target, 2), (target, 2))
    n = s[0].shape[-1]
    rows = np.arange(target[0].size).reshape(target[0].shape) * n
    acc = np.zeros(rows.size * n, dtype=np.int16)
    for (t_col, t_ph), shift in terms:
        cells = np.broadcast_to(_CELL[(t_ph + shift) % 4], rows.shape)
        np.add.at(acc, (rows + t_col).ravel(), cells.ravel())
    return ~acc.reshape(*rows.shape[:2], -1).any(-1)


def check_conjugations(p: int, max_failures: int = 1) -> OracleReport:
    """key_conjugate vs h s h-dagger for every basic transformation and
    spinor, both directions; compared after scaling by 2 to stay within
    the Gaussian integers."""
    keys = np.arange(1 << 2 * p, dtype=np.int64)
    n_keys = len(keys)
    stack = realize(keys, p)
    mono = _monomial(stack)
    if isinstance(mono, int):
        return _realization_fault(f"{key_text(mono, p)} is not a monomial matrix")
    coeff = 1 + 3 * key_self_parity(keys, p)  # i (-i)^(zeta.alpha), as in h_matrix
    # i^c S_h is S_h where the self parity is odd (c = 4), and -im + i re
    # where it is even (c = 1)
    odd = (coeff == 4)[:, None, None]
    hms = [h_matrix(BasicTransform(hk, p)) for hk in range(n_keys)]
    eye = np.eye(1 << p, dtype=np.int64)
    agree = ((np.stack([m.re for m in hms]) == eye + np.where(odd, stack.re, -stack.im))
             & (np.stack([m.im for m in hms]) == np.where(odd, stack.im, stack.re))).all(axis=(1, 2))
    if not agree.all():
        hk = int(np.argmin(agree))
        return _realization_fault(f"sqrt(2) {BasicTransform(hk, p)} is not I + i^c {key_text(hk, p)}")
    e, out = zip(*(key_conjugate(keys[:, None], inverse, keys[None, :], p)
                   for inverse in (False, True)))
    # ok[h, x, f]: direction f of h conjugates S_x as its matrix sandwich does
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
        return [f"conjugation mismatch: {BasicTransform(hk, p, bool(f))} on {key_text(j, p)}"]

    return _report(~ok, texts, max_failures)


def run_oracle(p: int) -> OracleReport:
    if p > ORACLE_GUARD_P:
        raise ValueError(f"oracle sweeps guarded to p <= {ORACLE_GUARD_P}")
    products = check_products(p)
    # a non-monomial stack stops both checks at the same witness; name it once
    return products if products.checks == 0 else products.merge(check_conjugations(p))
