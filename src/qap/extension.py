"""Every Cartan subalgebra of su(2^p), enumerated from its label C^{eps}_{[a_1...a_k]}:
a reduced echelon alpha basis plus a symmetric parity matrix, with no search and no
dedupe.  The atlas holds one (N, p) array of basis keys per shell, spanned by XOR doubling
over the parities; the local lift and classification read those arrays, and the JSONL
export writes each shell from them as fixed-width byte rows of one buffer.  A member becomes
a CartanSubalgebra only where the public API hands one out.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from .bitcore import InvariantError, gf2_span, parity
from .spinor import key_texts
from .subalgebra import CartanSubalgebra, label_text
from .transform import BasicTransform, SymbolicCircuit

ENUMERATION_MAX_P = 6
MEMBERS_MAX_P = 5  # member objects and the JSONL: 4 922 775 of them at p = 6
CLASSES_MAX_P = 7  # 2^21 classes; p = 8 has 2^28, and its keys pass int16


def count_kind(p: int, k: int) -> int:
    """Closed-form number of kind-k Cartan subalgebras in su(2^p)."""
    n = 1 << (k * (k + 1) // 2)
    for i in range(1, k + 1):
        n = n * ((1 << (p - i + 1)) - 1) // ((1 << i) - 1)
    return n


def count_total(p: int) -> int:
    out = 1
    for i in range(1, p + 1):
        out *= (1 << i) + 1
    return out


@dataclass
class CartanAtlas:
    """Every Cartan subalgebra of su(2^p) by kind: row i of by_kind[k] is a kind-k
    member's reduced echelon basis keys, descending; rows strictly ascend as bases read ascending."""

    p: int
    by_kind: dict[int, np.ndarray]

    @property
    def total(self) -> int:
        return sum(len(v) for v in self.by_kind.values())

    def members(self, kind: Optional[int] = None) -> Iterator[CartanSubalgebra]:
        """Every member, or the kind-k shell's, as a subalgebra, in atlas order."""
        if self.p > MEMBERS_MAX_P:
            raise ValueError(f"member objects guarded to p <= {MEMBERS_MAX_P}")
        for k in self.by_kind if kind is None else [kind]:
            for row in self.by_kind[k].tolist():
                yield CartanSubalgebra.from_basis(self.p, row)

    def member(self, i: int) -> CartanSubalgebra:
        """Member i in members() order, for 0 <= i < total."""
        if not 0 <= i < self.total:
            raise IndexError(f"atlas member {i} out of range 0..{self.total - 1}")
        for keys in self.by_kind.values():
            if i < len(keys):
                return CartanSubalgebra.from_basis(self.p, keys[i].tolist())
            i -= len(keys)


@lru_cache(maxsize=None)
def _label_rows(p: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """[(base, toggles) for k in 0..p], shapes (B, p) and (B, k(k+1)/2, k), of the kind-k
    alpha bases: choose pivot bits b_i, fill the non-pivot bits below each.  All at once, over
    the (B, 2^p) span of the rows' column words: entry x is the syndrome (a_i . x)_i, and the
    kernel is where it is 0.  Its reduced echelon basis is the smallest member with each
    leading bit; unit u_i, 2^b_i reduced against those, highest first (a missing bit's 2^p
    moves nothing), is the smallest member of 2^b_i + kernel.  As u_i . a_j = delta_ij and the
    kernel is orthogonal to every row, parity matrix eps gives row j the reduced phase XOR_i
    eps_ij u_i.  The base row (eps = 0) is the rows << p, descending, then the kernel; toggling
    eps_rs (r <= s, superscript order) XORs u_s into phase r and u_r into phase s.  Keys <
    4^7 fit int16.  Built once per p, read-only and shared."""
    heads, packed, ends = [0], [0], [1]  # kind 0; a basis packs its c-th row at bit c p
    for k in range(1, p + 1):
        for piv in itertools.combinations(range(p), k):
            head = sum(1 << b << c * p for c, b in enumerate(piv[::-1]))
            fills = gf2_span([1 << j << c * p for c, b in enumerate(piv[::-1]) for j in range(b) if j not in piv])
            packed += [head | f for f in fills]
            heads += [head] * len(fills)
        ends.append(len(packed))
    units, rows = (np.array(v)[:, None] >> np.arange(0, p * p + p, p) & (1 << p) - 1 for v in (heads, packed))
    units, rows = units.astype(np.int16), rows[:, :p].astype(np.int16)  # units' column p: 0
    pivot, bit = rows != 0, np.arange(p, dtype=np.int16)  # the rest of a row holds the kernel
    syndrome = gf2_span(((rows[:, None, :] >> bit[:, None] & 1) << bit).sum(axis=2, dtype=np.int16))
    x = np.arange(1 << p, dtype=np.int16)
    # smallest member of [2^l, 2^(l+1)) per l, else 2^p; the rows are independent: p - k exist
    low = np.minimum.reduceat(np.where(syndrome == 0, x, 1 << p), 1 << np.arange(p), axis=1)
    for l in range(p - 1, -1, -1):
        units = np.minimum(units, units ^ low[:, l, None])
    vecs = units[:, :p]
    vecs[~pivot] = low[:, ::-1][low[:, ::-1] < 1 << p]
    bad = (syndrome[np.arange(len(rows))[:, None], vecs] != pivot << bit).any(axis=1)
    if bad.any():
        row = rows[bad.argmax()]
        raise InvariantError(f"rows {row[row != 0][::-1].tolist()}: units or kernel not dual to the rows")
    base, out = np.where(pivot, rows << p, vecs), []
    for k, (start, end) in enumerate(zip([0] + ends, ends)):
        pick = [[k - 1 - s if i == r else k - 1 - r if i == s else p for i in range(k - 1, -1, -1)]
                for r in range(k) for s in range(r, k)]
        out.append((base[start:end], units[start:end, np.array(pick, np.intp).reshape(len(pick), k)]))
    for table in itertools.chain(*out):
        table.setflags(write=False)
    return tuple(out)


@lru_cache(maxsize=None)
def _shell_rows(p: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """_label_rows(p) in key order: a kind's alpha bases by their kernel columns (the kernel fixes
    the rows), each one's toggles Gauss-Jordan reduced over all 2p k bits, column c's bit b at
    2p c + b, by ascending leading bit (a zero toggle first).  A leading bit is 0 in the base row
    and the other toggles, so span entry i ascends with i.  Built once per p, read-only, shared."""
    out = []
    for k, (base, toggles) in enumerate(_label_rows(p)):
        order = np.lexsort(base.T)
        base, toggles, (n, t) = base[order], toggles[order], toggles.shape[:2]
        lead, free, at = np.full((n, t), -1), np.ones((n, t), dtype=bool), np.arange(n)
        for pos in range(2 * p * k - 1, -1, -1):  # the last column's top bit leads
            has = (toggles[:, :, pos // (2 * p)] >> pos % (2 * p) & 1).astype(bool)
            pick = (has & free).argmax(axis=1)
            found = (has & free)[at, pick]
            lead[at[found], pick[found]], free[at[found], pick[found]], has[at, pick] = pos, False, False
            toggles ^= (has & found[:, None])[:, :, None] * toggles[at, pick][:, None]
        out.append((base, np.take_along_axis(toggles, lead.argsort(axis=1, kind="stable")[:, :, None], axis=1)))
    for table in itertools.chain(*out):
        table.setflags(write=False)
    return tuple(out)


def _check_shell(p: int, k: int, keys: np.ndarray) -> None:
    """A kind-k shell holds count_kind(p, k) members, strictly ascending from the last key, so
    distinct, each p keys with distinct leading bits, descending, the first k with alpha."""
    if len(keys) != count_kind(p, k):
        raise InvariantError(f"shell {k}: {len(keys)} members, not {count_kind(p, k)}")
    cols = np.ascontiguousarray(keys.T)  # a's leading bit is above b's iff a & ~b > b
    alpha = cols >> p != 0
    bad = ((cols[:-1] & ~cols[1:]) <= cols[1:]).any(axis=0) | (cols[-1] == 0)
    bad |= ~alpha[:k].all(axis=0) | alpha[k:].any(axis=0)
    if bad.any():
        row = keys[bad.argmax()].tolist()
        raise InvariantError(f"shell {k}: {row} is not a kind-{k} basis of distinct leading bits")
    up, tie = np.zeros(len(keys) - 1, dtype=bool), np.ones(len(keys) - 1, dtype=bool)
    for col in cols[::-1]:
        up, tie = up | tie & (col[1:] > col[:-1]), tie & (col[1:] == col[:-1])
    if not up.all():
        row = keys[up.argmin() + 1]
        why = "appears twice" if (keys == row).all(axis=1).sum() > 1 else "is below the one before it"
        raise InvariantError(f"shell {k}: basis {row.tolist()} {why}")


def enumerate_all(p: int) -> CartanAtlas:
    """Every Cartan subalgebra of su(2^p) from its label: a shell is each alpha basis's
    base row XOR the span of its toggles, built by _shell_rows in ascending basis order,
    the element-list order (two ascending element lists first differ at index 2^j, j the
    first ascending basis row that differs), with no sort; checked, the total too."""
    if not 1 <= p <= ENUMERATION_MAX_P:
        raise ValueError(f"enumeration guarded to p <= {ENUMERATION_MAX_P}")
    by_kind: dict[int, np.ndarray] = {}
    for k, (base, toggles) in enumerate(_shell_rows(p)):
        n, t = toggles.shape[:2]
        phases = gf2_span(toggles.transpose(0, 2, 1).reshape(n * k, t)).reshape(n, k, 1 << t)
        keys = np.repeat(base, 1 << t, axis=0)
        keys[:, :k] ^= phases.transpose(0, 2, 1).reshape(n << t, k)
        by_kind[k] = keys
        _check_shell(p, k, keys)
    atlas = CartanAtlas(p, by_kind)
    if atlas.total != count_total(p):
        raise InvariantError(f"{atlas.total} members, not {count_total(p)}")
    return atlas


def _codes(gens: np.ndarray, p: int, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """Bit t of row n is entry (r, s) = pairs[t] of its parity table: the
    parity of zeta_r . alpha_s over its generator keys gens[n], ascending."""
    r, s = np.array(pairs, np.intp).reshape(len(pairs), 2).T
    return parity(gens[:, r] & gens[:, s] >> p) @ (1 << np.arange(len(pairs), dtype=np.int32))


@lru_cache(maxsize=None)
def _bit_texts(n: int) -> tuple[str, ...]:
    """Code m as text: character t is bit t of m; built once per n, shared."""
    return tuple(format(m, f"0{n}b")[::-1] if n else "" for m in range(1 << n))


# ---------------------------------------------------------------------------
# local equivalence


def lift_keys(basis: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(units, lifted) of the local lift of every row of an (N, p) array of
    bases.  units masks the words e_j off the pivots of its reduced alpha
    basis.  The factors h[0|e_j] have zeta 0 and commute, so the lift is
    x -> x ^ ((x & units) << p) on the p basis keys; Gauss-Jordan on the p
    alpha bits gives the lifted echelon basis, row i with alpha e_(p-1-i).
    It runs on the p basis columns: column i takes the bit from the first
    later column that has it, then clears it from every other column."""
    cols = basis.T.copy()
    # smear each alpha below its top bit: lead ^ (lead >> 1) is its pivot, 0 if diagonal
    lead = cols >> p
    for shift in (1, 2, 4, 8):
        lead |= lead >> shift
    units = ~np.bitwise_or.reduce(lead ^ (lead >> 1), axis=0) & ((1 << p) - 1)
    cols ^= (cols & units) << p
    cols, top = list(cols), np.ones(len(basis), dtype=bool)
    for i in range(p):
        bit, later = 2 * p - 1 - i, 0
        for col in cols[:i:-1]:
            later = np.where(col >> bit & 1, col, later)
        cols[i] = pivot = np.where(cols[i] >> bit & 1, cols[i], cols[i] ^ later)
        top &= (pivot >> bit & 1).astype(bool)
        for col in cols[:i] + cols[i + 1 :]:
            col ^= (col >> bit & 1) * pivot
    lifted = np.stack(cols).T
    if not top.all():
        c = CartanSubalgebra.from_basis(p, basis[top.argmin()].tolist())
        raise InvariantError(f"local lift of {c.label} failed to reach the top kind")
    return units, lifted


def local_lift(c: CartanSubalgebra) -> tuple[SymbolicCircuit, CartanSubalgebra]:
    """Raise a kind-k subalgebra to the top kind with single-bit-alpha
    factors, one new independent partitioning direction per factor: the
    unit words off the pivots of the reduced alpha basis, ascending."""
    p = c.p
    units, lifted = lift_keys(np.array([c.basis_keys]), p)
    factors = (BasicTransform(1 << (p + j), p) for j in range(p) if units[0] >> j & 1)
    return SymbolicCircuit(tuple(factors)), CartanSubalgebra.from_basis(p, lifted[0].tolist())


def class_codes(basis: np.ndarray, p: int) -> np.ndarray:
    """The local-equivalence class of every row of an (N, p) array of bases:
    bit t is mutual parity t (i < j, row by row) of its local lift."""
    gens = lift_keys(basis, p)[1][:, ::-1]
    return _codes(gens, p, [(i, j) for i in range(p) for j in range(i + 1, p)])


def classify_local(atlas: CartanAtlas) -> dict[str, list[CartanSubalgebra]]:
    """Partition the atlas into local-equivalence classes keyed by the
    mutual-parity string of the (self-parity-normalized) local lift."""
    texts = _bit_texts(atlas.p * (atlas.p - 1) // 2)
    index: dict[str, list[CartanSubalgebra]] = {}
    for k, basis in atlas.by_kind.items():
        for m, c in zip(class_codes(basis, atlas.p).tolist(), atlas.members(k)):
            index.setdefault(texts[m], []).append(c)
    return index


def class_sizes(p: int) -> np.ndarray:
    """Class sizes of classify_local on the p-atlas by ascending key (entry i: key i in
    p(p - 1)/2 binary digits), from the labels.  A kind-k alpha basis A lifts by one shear
    alpha' = alpha ^ U zeta (U: its non-pivot mask), as toggles move only zeta.  An element
    (Z c ^ kappa, A c), Z linear in eps and kappa in the kernel, has alpha' = c on the pivots,
    and kappa = L((alpha' ^ A c ^ Z c) off the pivots), L free of eps, as a nonzero kernel
    vector is nonzero off them.  So zeta = S_eps alpha' with S_eps affine in eps, and so is
    the code read off S_eps: d_t = code(e_t) ^ code(0) is the same at every eps.  A self-parity
    d_t must be 0; each code of code(0) ^ span(off-diagonal d_t) holds 2^k members."""
    if not 1 <= p <= CLASSES_MAX_P:
        raise ValueError(f"classes guarded to p <= {CLASSES_MAX_P}")
    n, shells = p * (p - 1) // 2, _label_rows(p)
    rows = [np.repeat(base[:, None], toggles.shape[1] + 1, axis=1) for base, toggles in shells]
    for k, (_, toggles) in enumerate(shells):  # per alpha basis: eps = 0, then each toggle
        rows[k][:, 1:, :k] ^= toggles
    codes, at, sizes = class_codes(np.concatenate([r.reshape(-1, p) for r in rows]), p), 0, 0
    for k, r in enumerate(rows):
        code, at = codes[at : at + r.size // p].reshape(r.shape[:2]), at + r.size // p
        images = code[:, 1:] ^ code[:, :1]
        diagonal = np.array([i == j for i in range(k) for j in range(i, k)], dtype=bool)
        if (moved := images[:, diagonal].any(axis=1)).any():
            c = CartanSubalgebra.from_basis(p, r[moved.argmax(), 0].tolist())
            raise InvariantError(f"{c.label}: a self-parity toggle moves its class code")
        span = gf2_span(images[:, ~diagonal]) ^ code[:, :1]
        sizes += np.bincount(span.ravel(), minlength=1 << n) << k
    return sizes.reshape((2,) * n).transpose().ravel()  # key order reads code bits downward


@lru_cache(maxsize=None)
def _element_bytes(p: int) -> np.ndarray:
    """Row x: key x as a JSON string and the list separator after it, '"S[zeta|alpha]", ',
    2p + 8 ASCII bytes; built once per p, read-only and shared."""
    text = "".join([f'"{t}", ' for t in key_texts(p)])
    return np.frombuffer(text.encode("ascii"), np.uint8).reshape(1 << 2 * p, 2 * p + 8)


def atlas_jsonl(atlas: CartanAtlas) -> str:
    """One JSON object per subalgebra, keys sorted: label, kind, parity strings, canonical
    element list, spanned ascending from the basis.  Every line of a shell has one width, so
    a shell is an (N, width) block of one byte buffer, written a field at a time: the element
    texts gathered from the per-key byte table, eps_mu, eps_se and the superscript as '0'/'1'
    bytes of one parity code (the off-diagonal, diagonal and all pairs r <= s), the alpha
    words' bits likewise, and the constant text by broadcast."""
    p, table = atlas.p, _element_bytes(atlas.p)
    head, span_width = np.frombuffer(b'{"elements": [', np.uint8), table.shape[1] << p
    words = "".join([f"{a:0{p}b}," for a in range(1 << p)]).encode()  # alpha a's word, a comma
    words = np.frombuffer(words, np.uint8).reshape(1 << p, p + 1)
    shells = []
    for k, basis in atlas.by_kind.items():
        n, gens = len(basis), basis[:, :k][:, ::-1]
        upper = [(r, s) for r in range(k) for s in range(r, k)]
        code = _codes(gens, p, upper).astype("<u4").view(np.uint8).reshape(n, 4)
        sup = np.unpackbits(code, axis=1, count=len(upper), bitorder="little") + 48  # ord("0")
        diagonal = np.array([r == s for r, s in upper], dtype=bool)
        alphas = words.take(gens >> p, axis=0).reshape(n, k * (p + 1))[:, :-1]
        label = [b"C^{", sup, b"}_{[", alphas, b"]}"] if k else [label_text(p, "", []).encode()]
        fields = [b'], "eps_mu": "', sup[:, ~diagonal], b'", "eps_se": "', sup[:, diagonal],
                  f'", "kind": {k}, "label": "'.encode(), *label, b'"}\n']
        fields = [np.frombuffer(f, np.uint8)[None] if isinstance(f, bytes) else f for f in fields]
        shells.append((basis, fields, len(head) + span_width - 2 + sum(f.shape[1] for f in fields)))
    buf, at = np.empty(sum(len(basis) * width for basis, _, width in shells), np.uint8), 0
    for basis, fields, width in shells:
        rows = buf[at : at + len(basis) * width].reshape(len(basis), width)
        at += rows.size
        rows[:, : len(head)] = head
        elements = table.take(gf2_span(basis[:, ::-1]), axis=0)  # table[...] is 10x slower
        rows[:, len(head) : len(head) + span_width] = elements.reshape(len(basis), span_width)
        x = len(head) + span_width - 2  # the last element's ", " gives way to the next field
        for f in fields:
            rows[:, x : x + f.shape[1]], x = f, x + f.shape[1]
    return str(buf, "ascii")
