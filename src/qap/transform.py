"""Basic spinor-to-spinor rotations and the three-stage connector.

A basic transformation h[zeta|alpha] fixes every spinor commuting with
S[zeta|alpha] and sends an anti-commuting S[eta|beta] to
i (-i)^(zeta.alpha) (-1)^(eta.alpha) S[zeta+eta|alpha+beta], the phase
pinned by the exact matrix realization.  Circuits compose these; the
connector Q = E P R maps any valid decomposition sequence onto the
referential one anchored at the diagonal subalgebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .bitcore import (
    MAX_WIDTH, InvariantError, _check_width, gf2_echelon, gf2_rank, gf2_span, solve_affine,
)
from .partition import DecompositionSequence, QAPartition
from .spinor import (
    GaussianMatrix,
    PhasedSpinor,
    Spinor,
    key_conjugate,
    key_of,
    key_self_parity,
    key_text,
    omega,
    pack,
    realize,
    spinor_of_key,
)
from .subalgebra import CartanSubalgebra, SpinorSet, intrinsic_cartan


@dataclass(frozen=True)
class BasicTransform:
    """h[zeta|alpha] = (S[0|0] + i (-i)^(zeta.alpha) S[zeta|alpha]) / sqrt(2),
    held as the packed key (alpha << p) | zeta of its spinor."""

    key: int
    p: int
    inverse: bool = False

    def __post_init__(self) -> None:
        if hasattr(self.p, "bits"):  # a (zeta, alpha) BitWord pair, as perfbench/tests passes
            object.__setattr__(self, "key", key_of(Spinor(self.key, self.p)))
            object.__setattr__(self, "p", self.p.p)
        _check_width(self.p)
        if not 0 <= self.key < 1 << (2 * self.p):
            raise ValueError(f"key {self.key:#x} out of range for width {self.p}")

    @property
    def is_local(self) -> bool:
        """Acts on a single tensor factor: one-bit alpha, or a diagonal
        rotation with one-bit zeta."""
        return ((self.key >> self.p) or self.key).bit_count() == 1

    def inverted(self) -> "BasicTransform":
        return BasicTransform(self.key, self.p, not self.inverse)

    def __str__(self) -> str:
        mark = "'" if self.inverse else ""
        return f"h{mark}" + key_text(self.key, self.p).removeprefix("S")


def conjugate(h: BasicTransform, s: PhasedSpinor | Spinor) -> PhasedSpinor:
    """h s h-dagger (or h-dagger s h for an inverted factor), exactly."""
    if isinstance(s, Spinor):
        s = PhasedSpinor(0, s)
    if h.p != s.body.p:
        raise ValueError(f"width mismatch: {h.p} vs {s.body.p}")
    e, key = key_conjugate(h.key, h.inverse, key_of(s.body), h.p)
    return PhasedSpinor(s.i_exp + e, spinor_of_key(key, h.p))


@dataclass(frozen=True)
class SymbolicCircuit:
    """Ordered basic transformations; factors[0] is applied first."""

    factors: tuple[BasicTransform, ...] = ()

    @classmethod
    def of(cls, *factors: BasicTransform) -> "SymbolicCircuit":
        return cls(tuple(factors))

    def then(self, later: "SymbolicCircuit") -> "SymbolicCircuit":
        return SymbolicCircuit(self.factors + later.factors)

    def inverted(self) -> "SymbolicCircuit":
        return SymbolicCircuit(tuple(f.inverted() for f in reversed(self.factors)))

    @property
    def is_local(self) -> bool:
        return all(f.is_local for f in self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def __str__(self) -> str:
        """Factors printed right-to-left in application order."""
        if not self.factors:
            return "(identity)"
        return " ".join(str(f) for f in reversed(self.factors))

    def factor_strings(self) -> list[str]:
        """JSON-friendly mirror of the text form (same right-to-left order)."""
        return [str(f) for f in reversed(self.factors)]

    def map_keys(self, keys: Iterable[int], p: int) -> list[int]:
        """Keys of width p through the circuit, phases dropped: one GF(2)-linear
        map M(k) = lo[k & mask] ^ hi[k >> p], spanned from its 2p unit images."""
        if any(f.p != p for f in self.factors):
            raise ValueError("factor width mismatch")
        if not self.factors:
            return list(keys)
        mask, lo, hi = self._key_tables
        return [lo[k & mask] ^ hi[k >> p] for k in keys]

    @cached_property
    def _key_tables(self) -> tuple[int, list[int], list[int]]:
        p = self.factors[0].p
        units = transvect((f.key for f in self.factors), [1 << b for b in range(2 * p)], p)
        return (1 << p) - 1, gf2_span(units[:p]), gf2_span(units[p:])


def transvect(factor_keys: Iterable[int], keys: Iterable[int], p: int) -> Iterable[int]:
    """Keys conjugated through factors, phases dropped (set identity is phase
    free): factor key h moves the keys that anti-commute with it by XOR and
    fixes the rest.  It is linear, so a subalgebra moves with its basis."""
    for h in factor_keys:
        keys = [k ^ h if omega(h, k, p) else k for k in keys]
    return keys


def apply_circuit(q: SymbolicCircuit, x: SpinorSet) -> SpinorSet:
    """Elementwise conjugation of a spinor set, phases dropped."""
    return SpinorSet(x.p, q.map_keys(x.keys, x.p))


def apply_to_cartan(q: SymbolicCircuit, c: CartanSubalgebra) -> CartanSubalgebra:
    """The image of c, carried through its p basis keys."""
    return CartanSubalgebra.from_basis(c.p, gf2_echelon(q.map_keys(c.basis_keys, c.p)))


def h_matrices(keys, p: int) -> GaussianMatrix:
    """sqrt(2) times the unitaries of h[key] for a key array (or one int
    key), stacked along its axes, exact over the Gaussian integers:
    I + i (-i)^(zeta.alpha) S_key, that is I + i S_key for an even self
    parity and I + S_key for an odd one."""
    keys = np.asarray(keys, dtype=np.int64)
    s = realize(keys, p)
    even = key_self_parity(keys, p)[..., None, None] == 0
    return GaussianMatrix(np.eye(1 << p, dtype=np.int64) + np.where(even, -s.im, s.re),
                          np.where(even, s.re, s.im))


def h_matrix(h: BasicTransform) -> GaussianMatrix:
    """sqrt(2) times the unitary of h, exact over the Gaussian integers."""
    m = h_matrices(h.key, h.p)
    return m.dagger() if h.inverse else m


# ---------------------------------------------------------------------------
# the three stages


def build_R(c: CartanSubalgebra) -> SymbolicCircuit:
    """Diagonalizer: one factor per canonical generator S[xi_i|alpha_i],
    with phases solved from xi_i.alpha_j + zeta_j.alpha_i = delta_ij."""
    p, table = c.p, c.parity_table
    alphas = [g >> p for g in c.generator_keys]
    factors = []
    for j, aj in enumerate(alphas):
        z = solve_affine([(ai, (i == j) ^ table[i][j]) for i, ai in enumerate(alphas)], p)
        if z is None:
            raise InvariantError("diagonalizer system must be solvable")
        factors.append(BasicTransform(pack(z, aj, p), p))
    return SymbolicCircuit(tuple(factors))


def _cell_signature(key: int, p: int) -> tuple[int, int]:
    """(alpha, sigma) of the diagonal-partition cell
    W^sigma_alpha = {S[zeta|alpha] : zeta.alpha = 1 + sigma} holding key."""
    alpha = key >> p
    return alpha, 1 ^ (alpha & key).bit_count() & 1


def build_P(signatures: Sequence[tuple[int, int]], p: int) -> SymbolicCircuit:
    """Parity correction: a single diagonal factor h[eta|0] with
    eta.alpha_r = sigma_r over the image cells' (alpha_r, sigma_r)
    signatures, fixing every image cell to odd self parity."""
    if not signatures:
        raise ValueError("need at least one image cell")
    eta = solve_affine(signatures, p)
    if eta is None:
        raise InvariantError("parity system must be solvable for independent alphas")
    return SymbolicCircuit.of(BasicTransform(eta, p))


def build_exchange_step(
    src: int, dst: int, p: int, frozen: Sequence[int] = ()
) -> SymbolicCircuit:
    """e = h[zeta|src+dst] h[eta|src+dst] moving W^eps_src onto W^eps_dst
    while leaving W^eps_f untouched for every frozen f and fixing the
    diagonal subalgebra as a set; all words are p-bit ints.

    (eta, zeta) is the lexicographically smallest admissible pair, eta
    first: the smallest solution of the parity rules zeta.d = eta.d =
    (zeta+eta).src = 1 and (zeta+eta).f = 0, with d = src + dst, as one
    affine system in the 2p-bit word (eta << p) | zeta, so p <= MAX_WIDTH / 2.
    """
    if src == dst:
        raise ValueError("exchange endpoints must differ")
    if p > MAX_WIDTH // 2:
        raise ValueError(f"exchange steps need p <= {MAX_WIDTH // 2}, got {p}")
    d = src ^ dst
    rows = [(d << p, 1), (d, 1), ((src << p) | src, 1)] + [((f << p) | f, 0) for f in frozen]
    x = solve_affine(rows, 2 * p)
    if x is None:
        raise ValueError("frozen constraints exhaust the solver's freedom")
    return SymbolicCircuit.of(
        BasicTransform(pack(x >> p, d, p), p), BasicTransform(pack(x & (1 << p) - 1, d, p), p)
    )


def build_E(alphas: Sequence[int], p: int) -> SymbolicCircuit:
    """Exchange pipeline over p-bit int partitionings: step r moves the
    r-th cell partitioning onto the unit word with printed bit r, freezing
    the already placed units."""
    if not alphas:
        raise ValueError("need at least one partitioning")
    alphas = list(alphas)
    placed: list[int] = []
    circuit = SymbolicCircuit()
    for r in range(len(alphas)):
        target = 1 << (p - 1 - r)
        a = alphas[r]
        if a != target:
            step = build_exchange_step(a, target, p, placed)
            shift = step.factors[0].key ^ step.factors[1].key  # alphas cancel: eta ^ zeta
            for j in range(r, len(alphas)):
                if (shift & alphas[j]).bit_count() & 1:
                    alphas[j] ^= a ^ target
            circuit = circuit.then(step)
        placed.append(target)
    return circuit


def referential_cell(p: int, r: int) -> SpinorSet:
    """W^0 at the unit partitioning with printed bit r: odd-self-parity
    spinors."""
    if not 1 <= r <= p:
        raise ValueError(f"position {r} out of 1..{p}")
    beta = 1 << (p - r)
    return SpinorSet(p, ((beta << p) | z for z in range(1 << p) if z & beta))


def connect(seq: DecompositionSequence) -> SymbolicCircuit:
    """Q = E P R mapping the sequence onto the referential one.  Each step
    cell's (alpha, sigma) is read once, from R's image of its smallest key:
    P solves eta from them and E takes their alphas (h[eta|0] moves no
    alpha).  The contract (center to the diagonal subalgebra, step r to the
    unit cell W^0_{beta_r}), asserted on the full sets, is the connector's
    one check: a step cell off one conditioned subspace, a wrong P or an
    unplaced exchange step all miss it."""
    center = seq.center
    p = center.p
    r_circ = build_R(center)
    images = r_circ.map_keys([min(cell.keys) for cell in seq.steps], p)
    signatures = [_cell_signature(k, p) for k in images]
    q = r_circ.then(build_P(signatures, p)).then(build_E([a for a, _ in signatures], p))
    if apply_to_cartan(q, center) != intrinsic_cartan(p):
        raise InvariantError("connector does not map the center onto the diagonal")
    for r, cell in enumerate(seq.steps, start=1):
        if apply_circuit(q, cell) != referential_cell(p, r):
            raise InvariantError(f"connector misses the referential cell at step {r}")
    return q


def random_sequence(qap: QAPartition, rng) -> DecompositionSequence:
    """Seeded random valid sequence: p distinct, group-generating
    determinants with random halves."""
    p = qap.p
    while True:
        idx = rng.sample(range(1, 1 << p), p)
        if gf2_rank(idx) == p:
            break
    keys = tuple((i, rng.randrange(2)) for i in idx)
    return DecompositionSequence(qap, keys)
