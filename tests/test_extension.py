from __future__ import annotations

import inspect
import itertools
import json
import random
import re
from typing import Iterable, Optional

import numpy as np
import pytest

from conftest import atlas
from paper_reference import class_connector, mutual_parity, nonlocal_connector, ref_basis, ref_parity_table
from qap import cli, extension
from qap.bitcore import InvariantError, gf2_echelon, gf2_nullspace, gf2_reduce, gf2_span, parity
from qap.extension import (
    CartanAtlas,
    _bit_texts,
    _codes,
    class_codes,
    class_sizes,
    classify_local,
    count_kind,
    count_total,
    enumerate_all,
    lift_keys,
    local_lift,
)
from qap.partition import build_qap
from qap.spinor import Spinor, key_texts
from qap.subalgebra import (
    CartanSubalgebra,
    SpinorSet,
    intrinsic_cartan,
    is_cartan,
    label_text,
    parse_label,
)
from qap.transform import BasicTransform, SymbolicCircuit, apply_to_cartan

S = Spinor.make


def extend_shell(c: CartanSubalgebra) -> set[CartanSubalgebra]:
    """The paper's shell construction: all kind-(k+1) Cartan subalgebras
    obtainable as the union of a phase-type maximal bi-subalgebra of c with
    one of its conditioned subspaces; empty once c is of the top kind."""
    out: set[CartanSubalgebra] = set()
    for b, w, w_hat in _phase_pairs(c):
        for half in (w, w_hat):
            ext = CartanSubalgebra.from_basis(c.p, gf2_echelon(b | half))
            if ext.kind != c.kind + 1:
                raise InvariantError(f"extension of {c.label} is not of the next kind")
            out.add(ext)
    return out


def _phase_pairs(c: CartanSubalgebra):
    """(B keys, W^1 keys, W^0 keys) for every phase-type maximal
    bi-subalgebra B_i of c, read from c's partition: the members whose
    commutant misses a diagonal element (a key below 2^p)."""
    q = build_qap(c, verify=False)
    g = q.maxbi
    phase_type = ~g.comm[:, g.keys < 1 << c.p].all(axis=1)
    for i in phase_type.nonzero()[0].tolist():
        yield g.members[i].elements.keys, q.cells[(i, 1)].keys, q.cells[(i, 0)].keys


def extend_shell_via_qap(c: CartanSubalgebra) -> set[CartanSubalgebra]:
    """Reference route through the full partition machinery: B u W for
    every phase-type member B of the partition and both of its cells."""
    q = build_qap(c)
    out: set[CartanSubalgebra] = set()
    for i in range(1, 1 << c.p):
        b = q.maxbi.members[i]
        if b.flavor != "phase_type":
            continue
        for eps in (0, 1):
            out.add(CartanSubalgebra(b.elements | q.cells[(i, eps)]))
    return out


def shells_by_bfs(p: int) -> list[list[frozenset[int]]]:
    """The atlas grown from the diagonal subalgebra by extend_shell, shell
    by shell, each shell deduplicated and sorted by element list."""
    shells = [[intrinsic_cartan(p).elements.keys]]
    members = [intrinsic_cartan(p)]
    for _ in range(p):
        nxt = {ext.elements.keys: ext for c in members for ext in extend_shell(c)}
        members = [nxt[keys] for keys in sorted(nxt, key=sorted)]
        shells.append([c.elements.keys for c in members])
    return shells


def test_closed_form_counts():
    assert count_total(1) == 3
    assert count_total(2) == 15
    assert count_total(3) == 135
    assert count_total(4) == 2295
    assert [count_kind(3, k) for k in range(4)] == [1, 14, 56, 64]
    assert sum(count_kind(4, k) for k in range(5)) == 2295


def test_first_shell_size():
    got = extend_shell(intrinsic_cartan(3))
    assert len(got) == 14
    assert all(c.kind == 1 for c in got)


def test_top_kind_extends_to_nothing():
    c = parse_label("C^{101011}_{[001,010,100]}")
    assert extend_shell(c) == set()


def test_extension_emits_only_new_pairs():
    # unions over bit-type members recover lower kinds, so they are skipped:
    # every emission of a kind-1 source has kind 2
    c = parse_label("C^{0}_{[100]}")
    got = extend_shell(c)
    assert got and all(x.kind == 2 for x in got)
    assert len(got) <= ((1 << 2) - 1) * (1 << 2)  # before-dedup bound


def test_fast_path_agrees_with_partition_route(atlas3):
    for c in list(atlas3.members())[::23]:
        if c.kind == 3:
            continue
        fast = {x.elements.keys for x in extend_shell(c)}
        slow = {x.elements.keys for x in extend_shell_via_qap(c)}
        assert fast == slow


def test_enumerate_counts():
    for p in (1, 2, 3):
        a = atlas(p)
        assert a.total == count_total(p)
        for k in range(p + 1):
            assert len(a.by_kind[k]) == count_kind(p, k)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_label_route_matches_bfs_shell_by_shell(p):
    # the direct route and the paper's shell construction give the same
    # members in the same order, shell by shell
    a = atlas(p)
    assert [[c.elements.keys for c in a.members(k)] for k in range(p + 1)] == shells_by_bfs(p)


def test_label_route_at_p5():
    a = enumerate_all(5)
    assert [len(a.by_kind[k]) for k in range(6)] == [count_kind(5, k) for k in range(6)]
    assert len({c.elements.keys for c in a.members()}) == count_total(5) == 75735
    for c in random.Random(5).sample(list(a.members()), 12):
        assert is_cartan(c.elements), c.label


def test_enumerate_guard():
    with pytest.raises(ValueError):
        enumerate_all(7)
    with pytest.raises(ValueError, match="guarded to p <= 5"):
        next(CartanAtlas(6, {0: np.array([[32, 16, 8, 4, 2, 1]])}).members())


# -- the array shells against the walk they replace -------------------------------


def ref_shell(p: int, k: int):
    """The kind-k members, one per label, walked one at a time, each with
    the parity table its walk carried.

    Alpha bases: choose pivot bits b_i, fill the non-pivot bits below each.
    Each unit u_i = 2^b_i is reduced once against the echelon basis of the
    rows' diagonal kernel.  As u_i . a_j = delta_ij and the kernel is
    orthogonal to every row, parity matrix eps gives row j the reduced
    phase XOR_i eps_ij u_i, and eps is the member's parity table.  eps is
    walked in Gray-code order, an entry and its mirror per step.  A
    member's basis is its generator keys, descending, then the kernel rows."""
    upper = [(r, s) for r in range(k) for s in range(r, k)]
    bits = [tuple(m >> j & 1 for j in range(k)) for m in range(1 << k)]
    eps = [0] * k  # row r of eps as a bit mask
    walk = []  # (the entry flipped at this step, eps after it)
    for step in range(1 << len(upper)):
        flip = upper[(step & -step).bit_length() - 1] if step else None
        if flip:
            r, s = flip
            eps[r] ^= 1 << s
            eps[s] ^= (r != s) << r
        walk.append((flip, tuple(bits[m] for m in eps)))
    for pivots in itertools.combinations(range(p), k):
        fills = [gf2_span([1 << j for j in range(b) if j not in pivots]) for b in pivots]
        for low in itertools.product(*fills):
            rows = [(1 << b) | f for b, f in zip(pivots, low)]
            kernel = gf2_echelon(gf2_nullspace(rows, p))
            units = [gf2_reduce(1 << b, kernel) for b in pivots]
            phases = [0] * k
            for flip, table in walk:
                if flip:
                    r, s = flip
                    phases[r] ^= units[s]
                    if r != s:
                        phases[s] ^= units[r]
                gens = [(a << p) | z for a, z in zip(rows, phases)]
                yield CartanSubalgebra.from_basis(p, gens[::-1] + kernel), table


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_array_shells_equal_the_reference_walk_row_by_row(p):
    a = enumerate_all(p)
    for k in range(p + 1):
        ref = sorted(ref_shell(p, k), key=lambda ct: ct[0].basis_keys[::-1])
        assert a.by_kind[k].tolist() == [list(c.basis_keys) for c, _ in ref], (p, k)
        if p <= 4:  # a member's derived parity table is the one its walk carried
            assert [c.parity_table for c in a.members(k)] == [table for _, table in ref]


def reference_label_rows(p: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """extension._label_rows one alpha basis at a time: the kernel is the
    echelon null space of the rows, and each unit 2^b_i is reduced against it."""
    upper, columns = [(r, s) for r in range(k) for s in range(r, k)], range(k - 1, -1, -1)
    base, toggles = [], []
    for pivots in itertools.combinations(range(p), k):
        fills = [gf2_span([1 << j for j in range(b) if j not in pivots]) for b in pivots]
        for low in itertools.product(*fills):
            rows = [(1 << b) | f for b, f in zip(pivots, low)]
            kernel = gf2_echelon(gf2_nullspace(rows, p))
            units = [gf2_reduce(1 << b, kernel) for b in pivots]
            duals = [[(a & x).bit_count() & 1 for x in units + kernel] for a in rows]
            if duals != [[int(i == j) for j in range(p)] for i in range(k)]:
                raise InvariantError(f"rows {rows}: units or kernel not dual to the rows")
            base.append([a << p for a in reversed(rows)] + kernel)
            toggles += [[units[s] if i == r else units[r] if i == s else 0 for i in columns]
                        for r, s in upper]
    toggles = np.array(toggles, np.int16).reshape(len(base), len(upper), k)
    return np.array(base, np.int16), toggles


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 7])
def test_label_rows_equal_the_per_basis_reference(p):
    shells = extension._label_rows(p)
    assert len(shells) == p + 1
    for k, shell in enumerate(shells):
        for got, want in zip(shell, reference_label_rows(p, k)):
            assert (got.dtype, got.shape) == (want.dtype, want.shape), (p, k)
            assert np.array_equal(got, want), (p, k)


def reference_codes(gens: np.ndarray, p: int, pairs: list[tuple[int, int]]) -> np.ndarray:
    """extension._codes one pair at a time."""
    code = np.zeros(len(gens), dtype=np.int32)
    for t, (r, s) in enumerate(pairs):
        code |= parity(gens[:, r] & gens[:, s] >> p).astype(np.int32) << t
    return code


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_codes_equal_the_per_pair_reference(p):
    """Every shell's eps_se, eps_mu and superscript codes; k = 0 (and k = 1 for eps_mu) has
    no pairs.  atlas_jsonl reads only the superscript code: eps_se and eps_mu are its bits at
    the diagonal and off-diagonal pairs, in order."""
    for k, basis in atlas(p).by_kind.items():
        gens, upper = basis[:, :k][:, ::-1], [(r, s) for r in range(k) for s in range(r, k)]
        sup = extension._codes(gens, p, upper)
        for pairs in ([(r, r) for r in range(k)], [(r, s) for r, s in upper if r < s], upper):
            got = extension._codes(gens, p, pairs)
            assert (got.dtype, got.shape) == (np.int32, (len(gens),)), (p, k, pairs)
            assert np.array_equal(got, reference_codes(gens, p, pairs)), (p, k, pairs)
            subset = sum(((sup >> upper.index(q) & 1) << t for t, q in enumerate(pairs)), 0 * sup)
            assert np.array_equal(got, subset), (p, k, pairs)


@pytest.fixture
def cold_label_tables():
    """The cached label tables, emptied before and after the test: an injection builds them
    afresh instead of reading a warm table, and no forged table outlives the test."""
    tables = (extension._label_rows, extension._shell_rows)
    for table in tables:
        table.cache_clear()
    yield tables
    for table in tables:
        table.cache_clear()


def test_fills_that_carry_another_pivot_fail_the_dual_check(monkeypatch, cold_label_tables):
    """Bit 0 XORed into every packed fill puts pivot 0 into a basis's top row:
    [1, 3] is the first kind-2 basis at p = 4 and is no longer reduced."""
    real = extension.gf2_span

    def forged(rows):
        out = real(rows)
        return [v ^ 1 for v in out] if isinstance(out, list) else out

    monkeypatch.setattr(extension, "gf2_span", forged)
    with pytest.raises(InvariantError, match=re.escape("rows [1, 3]: units or kernel not dual")):
        enumerate_all(4)


def repeat_a_toggle(base, toggles):
    toggles[0, 1] = toggles[0, 0]


def toggle_an_alpha_bit(base, toggles):
    toggles[0, 0, 0] ^= base[0, 0]


def repeat_a_leading_bit(base, toggles):
    base[0, -1] = base[0, -2]


def zero_a_row(base, toggles):
    base[-1, -1] = 0


def give_a_kernel_row_an_alpha_bit(base, toggles):
    base[-1, 2] |= 1 << 4  # below the generator keys' leading bits, above the other row's


def repeat_an_alpha_basis(base, toggles):
    base[1], toggles[1] = base[0], toggles[0]


@pytest.mark.parametrize("mutate, match", [
    (repeat_a_toggle, "appears twice"),
    (toggle_an_alpha_bit, "not a kind-2 basis"),
    (repeat_a_leading_bit, "distinct leading bits"),
    (zero_a_row, "distinct leading bits"),
    (give_a_kernel_row_an_alpha_bit, "not a kind-2 basis"),
    (repeat_an_alpha_basis, "appears twice"),
])
def test_a_corrupted_toggle_or_a_forged_row_fails_enumeration(monkeypatch, cold_label_tables,
                                                              mutate, match):
    real = extension._label_rows

    def corrupted(p):
        shells = [tuple(table.copy() for table in shell) for shell in real(p)]  # cached: read-only
        mutate(*shells[2])
        return shells

    monkeypatch.setattr(extension, "_label_rows", corrupted)
    with pytest.raises(InvariantError, match=match):
        enumerate_all(4)


def sorted_shell(keys: np.ndarray) -> np.ndarray:
    """The member-level sort that enumerate_all ran on every shell before it built them in
    key order: by the last basis key, then the one before it, and so on."""
    return keys[np.lexsort(keys.T)]


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_every_shell_is_built_sorted_and_strictly_ascending(p):
    for k, keys in enumerate_all(p).by_kind.items():
        assert np.array_equal(keys, sorted_shell(keys)), (p, k)
        assert (keys[1:] != keys[:-1]).any(axis=1).all(), (p, k)  # sorted, so ascending


def test_enumeration_sorts_alpha_bases_not_members(monkeypatch, cold_label_tables):
    real, sorted_rows = np.lexsort, []

    def counted(keys, *args, **kwargs):
        sorted_rows.append(np.shape(keys)[-1])
        return real(keys, *args, **kwargs)

    monkeypatch.setattr(np, "lexsort", counted)
    enumerate_all(5)
    assert sorted_rows == [len(base) for base, _ in extension._label_rows(5)]
    enumerate_all(5)  # the ordered table is built once per p
    assert len(sorted_rows) == 6


def forge_shell_rows(monkeypatch, forge) -> None:
    """extension._shell_rows with forge(p, shells) applied to a writable copy."""
    real = extension._shell_rows

    def forged(p):
        shells = [[table.copy() for table in shell] for shell in real(p)]
        forge(p, shells)
        return shells

    monkeypatch.setattr(extension, "_shell_rows", forged)


def unreduced_toggles(p, shells):
    """Each kind's bases in key order with their toggles as _label_rows holds them: in
    superscript order, not reduced."""
    for k, (base, toggles) in enumerate(extension._label_rows(p)):
        order = np.lexsort(base.T)
        shells[k] = base[order], toggles[order]


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_unreduced_toggles_fail_the_order_check(monkeypatch, cold_label_tables, p):
    forge_shell_rows(monkeypatch, unreduced_toggles)
    witness = r"2: basis \[136, 64, 2, 1\]" if p == 4 else r"\d+: basis \[[\d, ]+\]"
    with pytest.raises(InvariantError, match=rf"^shell {witness} is below the one before it$"):
        enumerate_all(p)


@pytest.mark.parametrize("basis", [0, 5, 34])
def test_two_swapped_rows_or_a_repeated_row_fail_the_order_check(monkeypatch, cold_label_tables,
                                                                 basis):
    """Shell 2 at p = 4 has eight rows per alpha basis, toggle j at bit j of the row index: two
    swapped toggles swap rows 1 and 2 of the basis, and a zero toggle 0 repeats row 0."""
    rows = enumerate_all(4).by_kind[2][basis * 8 : basis * 8 + 8].tolist()

    def swap(p, shells):
        shells[2][1][basis, [0, 1]] = shells[2][1][basis, [1, 0]]

    def repeat(p, shells):
        shells[2][1][basis, 0] = 0

    forge_shell_rows(monkeypatch, swap)
    with pytest.raises(InvariantError, match=re.escape(f"shell 2: basis {rows[1]} is below the one before it")):
        enumerate_all(4)
    forge_shell_rows(monkeypatch, repeat)
    with pytest.raises(InvariantError, match=re.escape(f"shell 2: basis {rows[0]} appears twice")):
        enumerate_all(4)


def test_cached_label_tables_give_what_fresh_tables_give(cold_label_tables):
    # the label tables are built once per p and kept read-only; calls interleaved over
    # p = 3, 4 and 5 give exactly the shells and class sizes that fresh tables give
    calls = [p for p in (3, 4, 5) for _ in range(3)]
    random.Random(32).shuffle(calls)
    fresh = []
    for p in calls:
        for table in cold_label_tables:
            table.cache_clear()
        fresh.append((enumerate_all(p).by_kind, class_sizes(p)))
    for p, (shells, sizes) in zip(calls, fresh):
        got = enumerate_all(p).by_kind
        assert all(np.array_equal(got[k], shells[k]) for k in range(p + 1)), p
        assert np.array_equal(class_sizes(p), sizes), p
    assert [table.cache_info().currsize for table in cold_label_tables] == [3, 3]
    for table in cold_label_tables:
        assert not any(array.flags.writeable for shell in table(4) for array in shell)


def test_atlas_commands_build_no_subalgebra(monkeypatch, capsys):
    def refuse(cls, *args, **kwargs):
        raise RuntimeError("CartanSubalgebra.from_basis called")

    monkeypatch.setattr(CartanSubalgebra, "from_basis", classmethod(refuse))
    for command in ("count", "classify", "enumerate"):
        assert cli.main([command, "--p", "4"]) == 0
    assert capsys.readouterr().out.endswith('"label": "C^{1111111111}_{[0001,0010,0100,1000]}"}\n')


def test_completeness_by_independent_exhaustive_search():
    # p = 2: every commuting bi-add-closed 4-element spinor subset
    # containing the identity, found by brute force over generator pairs
    p = 2
    keys = list(range(1 << (2 * p)))
    from qap.subalgebra import omega

    found = set()
    for a, b in itertools.combinations(keys[1:], 2):
        if a ^ b in (a, b) or omega(a, b, p):
            continue
        group = frozenset({0, a, b, a ^ b})
        if is_cartan(SpinorSet(p, group)):
            found.add(group)
    assert len(found) == count_total(p)
    assert found == {c.elements.keys for c in atlas(p).members()}


def test_completeness_p1_by_subset_scan():
    found = {
        frozenset({0, k})
        for k in range(1, 4)
        if is_cartan(SpinorSet(1, frozenset({0, k})))
    }
    assert len(found) == count_total(1) == 3
    assert found == {c.elements.keys for c in atlas(1).members()}


def test_members_are_bi_add_groups_isomorphic_to_z2p(atlas3):
    # closure, cardinality and rank of every enumerated member: the element
    # set is a 2^p-element XOR-closed group of rank p containing identity
    from qap.bitcore import gf2_rank

    for c in atlas3.members():
        assert is_cartan(c.elements)
        assert gf2_rank(c.elements.keys) == 3


def test_shell_reverse_direction(atlas3):
    # every kind-(k+1) member owns a bit-type maximal bi-subalgebra whose
    # union with one of its conditioned subspaces is a kind-k atlas member
    from conftest import qap_of

    lower = {c.elements.keys for c in atlas3.members() if c.kind <= 2}
    for c in list(atlas3.members())[::19]:
        if c.kind == 0:
            continue
        q = qap_of(c)
        hit = False
        for i in range(1, 8):
            if q.maxbi.members[i].flavor != "bit_type":
                continue
            for eps in (0, 1):
                u = CartanSubalgebra(q.maxbi.members[i].elements | q.cells[(i, eps)])
                if u.kind == c.kind - 1 and u.elements.keys in lower:
                    hit = True
        assert hit


# -- parities and local structure ----------------------------------------------


def test_mutual_parity_reference_case():
    c = parse_label("C^{101011}_{[001,010,100]}")
    se, mu = mutual_parity(c)
    assert se == "101" and mu == "011"


def test_mutual_parity_of_dual_intrinsic():
    from qap.subalgebra import dual_map

    d = dual_map(intrinsic_cartan(3))
    se, mu = mutual_parity(d)
    assert mu == "000" and se == "000"


def test_mutual_parity_rejects_lower_kind():
    with pytest.raises(ValueError):
        mutual_parity(parse_label("C^{1}_{[100]}"))


def test_mutual_parity_symmetry(atlas3):
    from qap.bitcore import dot

    for c in atlas3.members(3):
        gens = c.generators
        for gi, gj in itertools.combinations(gens, 2):
            assert dot(gi.zeta, gj.alpha) == dot(gj.zeta, gi.alpha)


def test_local_lift_reference_case():
    circuit, lifted = local_lift(parse_label("C^{1}_{[100]}"))
    assert len(circuit) == 2
    assert {f.key for f in circuit.factors} == {0b010_000, 0b001_000}  # alpha|zeta
    assert lifted.kind == 3
    assert circuit.is_local


def test_local_lift_identity_on_top_kind():
    c = parse_label("C^{101011}_{[001,010,100]}")
    circuit, lifted = local_lift(c)
    assert len(circuit) == 0 and lifted == c


def test_local_lift_everywhere(atlas3):
    for c in list(atlas3.members())[::13]:
        circuit, lifted = local_lift(c)
        assert lifted.kind == 3
        assert circuit.is_local
        assert is_cartan(lifted.elements)
        assert len(circuit) == 3 - c.kind


def test_classify_counts():
    for p in (2, 3, 4):
        a = atlas(p)
        index = classify_local(a)
        assert len(index) == 1 << (p * (p - 1) // 2)
        assert sum(len(v) for v in index.values()) == a.total
        assert by_key(class_sizes(p), p) == {mu: len(v) for mu, v in sorted(index.items())}


@pytest.mark.parametrize("n", [0, 1, 3, 6])
def test_bit_texts_are_built_once_per_width(n):
    texts = extension._bit_texts(n)
    assert texts == tuple("".join(str(m >> t & 1) for t in range(n)) for m in range(1 << n))
    assert extension._bit_texts(n) is texts


def test_class_connector_reaches_common_representative(atlas2, atlas3):
    for a, stride in ((atlas2, 3), (atlas3, 11)):
        index = classify_local(a)
        for mu, members in index.items():
            reps = set()
            for c in members[::stride]:
                circuit, rep, key = class_connector(c)
                assert key == mu
                assert circuit.is_local
                reps.add(rep.elements.keys)
            assert len(reps) == 1


def test_nonlocal_connector_cases(atlas2):
    kind2 = list(atlas2.members(2))
    c1 = kind2[0]
    circ, target = nonlocal_connector(c1, c1)
    assert len(circ) == 0 and target == c1

    # same mutual parity, different self parity: single-bit factors only
    same_mu = [c for c in kind2 if mutual_parity(c).mu == mutual_parity(c1).mu]
    other = next(c for c in same_mu if c != c1)
    circ, target = nonlocal_connector(c1, other)
    assert target == other
    assert all(f.key < 1 << f.p and f.key.bit_count() == 1 for f in circ.factors)

    # across classes: exactly one genuine two-bit factor
    rng = random.Random(99)
    cross = [c for c in kind2 if mutual_parity(c).mu != mutual_parity(c1).mu]
    for c2 in rng.sample(cross, 4):
        circ, target = nonlocal_connector(c1, c2)
        assert target == c2
        two_bit = [f for f in circ.factors if f.key.bit_count() == 2]
        assert len(two_bit) == 1 and not circ.is_local


def test_atlas_export_jsonl():
    from qap.extension import atlas_jsonl

    lines = atlas_jsonl(atlas(2)).strip().splitlines()
    assert len(lines) == 15
    row = json.loads(lines[0])
    assert set(row) == {"label", "kind", "eps_se", "eps_mu", "elements"}
    assert row["kind"] == 0 and len(row["elements"]) == 4


def reference_jsonl(atlas: CartanAtlas) -> str:
    """atlas_jsonl one f-string per member, from text tables: the element texts by key,
    the parity strings by code, the label once per alpha basis."""
    p, lines = atlas.p, []
    texts = np.array([json.dumps(t) for t in key_texts(p)], dtype=object)
    for k, basis in atlas.by_kind.items():
        gens, upper = basis[:, :k][:, ::-1], [(r, s) for r in range(k) for s in range(r, k)]
        # eps_se, eps_mu and superscript: one text table per kind, read by parity code
        tables = ([(r, r) for r in range(k)], [(r, s) for r, s in upper if r < s], upper)
        se, mu, sup = (np.array(_bit_texts(len(t)), dtype=object)[_codes(gens, p, t)].tolist()
                       for t in tables)
        spans, last = texts[gf2_span(basis[:, ::-1])].tolist(), None
        for elements, alphas, s, m, superscript in zip(spans, (gens >> p).tolist(), se, mu, sup):
            if alphas != last:  # one alpha basis's members are adjacent: format it once
                last = alphas  # the label around a '|' superscript; the 0th kind has none
                before, _, after = label_text(p, "|", alphas).partition("|")
            lines.append(f'{{"elements": [{", ".join(elements)}], "eps_mu": "{m}", '
                         f'"eps_se": "{s}", "kind": {k}, "label": "{before}{superscript}{after}"}}')
    return "\n".join(lines) + "\n"


def first_difference(got: str, want: str) -> Optional[tuple[int, str, str]]:
    """(index, got, wanted) of the first line that differs, or None if the texts are equal;
    pytest's own diff of two texts this long runs for minutes."""
    if got == want:
        return None
    pairs = itertools.zip_longest(got.splitlines(keepends=True), want.splitlines(keepends=True))
    return next((i, g, w) for i, (g, w) in enumerate(pairs) if g != w)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_atlas_jsonl_equals_the_per_member_reference(p):
    """Byte for byte; and every line of a shell has one width, which the byte rows rely on."""
    want = reference_jsonl(atlas(p))
    assert first_difference(extension.atlas_jsonl(atlas(p)), want) is None
    lines, at = want.splitlines(keepends=True), 0
    for k, basis in atlas(p).by_kind.items():
        assert len({len(line) for line in lines[at : at + len(basis)]}) == 1, (p, k)
        at += len(basis)
    assert at == len(lines)


def test_a_forged_element_table_fails_the_reference(monkeypatch):
    """Key 5 at p = 2, S[01|01], printed with its first zeta bit flipped."""
    forged = extension._element_bytes(2).copy()
    assert bytes(forged[5]) == b'"S[01|01]", '
    forged[5, 3] ^= 1
    monkeypatch.setattr(extension, "_element_bytes", lambda p: forged)
    got, want = extension.atlas_jsonl(atlas(2)), reference_jsonl(atlas(2))
    assert first_difference(got, want) is not None
    restored = [text.replace("S[11|01]", "S[01|01]") for text in (got, want)]
    assert first_difference(*restored) is None  # and nothing else moved


# -- label data against the reference derivation --------------------------------
#
# Members carry the basis and parity table their label walk produced, and the
# local lift runs on p basis keys.  The reference below derives all of it from
# the 2^p element keys, as the subalgebra did before it stored its label data.


def ref_local_lift(c: CartanSubalgebra) -> tuple[SymbolicCircuit, CartanSubalgebra]:
    """Conjugate all 2^p element keys through the unit factors off the pivots."""
    p = c.p
    pivots = {(g >> p).bit_length() - 1 for g in ref_basis(c) if g >> p}
    units = [j for j in range(p) if j not in pivots]
    circuit = SymbolicCircuit(tuple(BasicTransform(1 << (p + j), p) for j in units))
    return circuit, apply_to_cartan(circuit, c)


def ref_classes(members: Iterable[CartanSubalgebra]) -> dict[str, list[frozenset[int]]]:
    """Class keys from the mutual parities of the reference lift."""
    out: dict[str, list[frozenset[int]]] = {}
    for c in members:
        table = ref_parity_table(ref_local_lift(c)[1])
        mu = "".join(str(table[i][j]) for i in range(c.p) for j in range(i + 1, c.p))
        out.setdefault(mu, []).append(c.elements.keys)
    return out


def atlas_of(p: int, shells: dict[int, list[CartanSubalgebra]]) -> CartanAtlas:
    """An atlas whose key arrays hold the given members' bases."""
    arrays = {k: np.array([c.basis_keys for c in v], dtype=np.int64) for k, v in shells.items()}
    return CartanAtlas(p, {k: keys.reshape(-1, p) for k, keys in arrays.items()})


def label_data_cases() -> list[list[CartanSubalgebra]]:
    """Every member at p <= 4, then a seeded sample of p = 5 members."""
    sample = random.Random(11).sample(list(enumerate_all(5).members()), 400)
    return [list(atlas(p).members()) for p in (1, 2, 3, 4)] + [sample]


def test_label_data_matches_the_reference_derivation():
    for members in label_data_cases():
        for c in members:
            assert c.basis_keys == ref_basis(c), c.label
            assert c.parity_table == ref_parity_table(c), c.label
            circuit, lifted = local_lift(c)
            ref_circuit, ref_lifted = ref_local_lift(c)
            assert circuit == ref_circuit, c.label
            assert lifted.elements == ref_lifted.elements, c.label
            assert lifted.basis_keys == ref_basis(ref_lifted), c.label
            assert lifted.parity_table == ref_parity_table(ref_lifted), c.label
        p = members[0].p
        a = atlas_of(p, {k: [c for c in members if c.kind == k] for k in range(p + 1)})
        got = classify_local(a)
        assert {mu: [c.elements.keys for c in v] for mu, v in got.items()} == ref_classes(a.members())


def shuffled_atlas(members: list[CartanSubalgebra], seed: int) -> CartanAtlas:
    """The members shuffled into three shells of mixed kinds."""
    members = random.Random(seed).sample(members, len(members))
    third = -(-len(members) // 3)
    return atlas_of(members[0].p, {i: members[i * third : (i + 1) * third] for i in range(3)})


def test_batched_lift_matches_the_reference_row_by_row():
    for seed, members in enumerate(label_data_cases()):
        a = shuffled_atlas(members, seed)
        for i, basis in a.by_kind.items():
            units, lifted = lift_keys(basis, a.p)
            assert units.shape == (len(basis),) and lifted.shape == (len(basis), a.p)
            for c, mask, row in zip(a.members(i), units.tolist(), lifted.tolist()):
                ref_circuit, ref_lifted = ref_local_lift(c)
                assert mask == sum(f.key >> a.p for f in ref_circuit.factors), c.label
                assert tuple(row) == ref_basis(ref_lifted), c.label
        got = classify_local(a)
        assert {mu: [c.elements.keys for c in v] for mu, v in got.items()} == ref_classes(a.members())


def test_a_lift_that_misses_the_top_kind_names_its_member():
    # the diagonal row S[01|00] anti-commutes with the generator S[00|01]:
    # no Cartan subalgebra, and the lift through h[0|10] leaves both keys alone
    forged = CartanSubalgebra.from_basis(2, [0b0100, 0b0001])
    assert forged.label == "C^{0}_{[01]}"
    with pytest.raises(InvariantError, match=re.escape(f"local lift of {forged.label} failed")):
        local_lift(forged)
    members = list(atlas(2).members())
    a = atlas_of(2, {0: members[:7], 1: members[7:10] + [forged] + members[10:]})
    with pytest.raises(InvariantError, match=re.escape(f"local lift of {forged.label} failed")):
        classify_local(a)


def ref_lift_keys(basis: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference: the lift's Gauss-Jordan pass on whole (N, p) rows, gathering,
    swapping and XORing every row's pivot key at each alpha bit."""
    lead = basis >> p
    for shift in (1, 2, 4, 8):
        lead |= lead >> shift
    units = ~np.bitwise_or.reduce(lead ^ (lead >> 1), axis=1) & ((1 << p) - 1)
    lifted = basis ^ ((basis & units[:, None]) << p)
    top, members = np.ones(len(basis), dtype=bool), np.arange(len(basis))
    for i in range(p):
        bit = 2 * p - 1 - i
        candidates = lifted[:, i:] >> bit & 1
        top &= candidates.any(axis=1)
        pivot = i + candidates.argmax(axis=1)
        row = lifted[members, pivot]
        lifted[members, pivot] = lifted[:, i]
        lifted ^= (lifted >> bit & 1) * row[:, None]
        lifted[:, i] = row
    assert top.all()
    return units, lifted


def assert_lifts_equal(basis: np.ndarray, p: int) -> None:
    before = basis.copy()
    (units, lifted), (ref_units, ref_lifted) = lift_keys(basis, p), ref_lift_keys(basis, p)
    assert np.array_equal(basis, before), "the lift wrote into its input"
    assert units.dtype == ref_units.dtype and lifted.dtype == ref_lifted.dtype
    assert np.array_equal(units, ref_units) and np.array_equal(lifted, ref_lifted)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_column_lift_equals_the_row_lift_on_every_shell(p):
    for k, basis in atlas(p).by_kind.items():
        assert_lifts_equal(basis, p)


def test_column_lift_equals_the_row_lift_on_seeded_p6_rows():
    rng = np.random.default_rng(6)
    for k, basis in enumerate_all(6).by_kind.items():
        rows = rng.choice(len(basis), size=min(len(basis), 1 << 16), replace=False)
        assert_lifts_equal(basis[np.sort(rows)], 6)


# -- class sizes by label against the enumerated atlas ----------------------------
#
# class_sizes reads one affine class map per alpha basis off t + 1 lifted members;
# the reference lifts every member of the enumerated atlas.


def enumerated_class_sizes(a: CartanAtlas) -> dict[str, int]:
    """Every member lifted and its class code counted, keyed as classify_local keys
    its classes, by ascending key."""
    n = a.p * (a.p - 1) // 2
    sizes = sum(np.bincount(class_codes(basis, a.p), minlength=1 << n) for basis in a.by_kind.values())
    texts = extension._bit_texts(n)
    return dict(sorted((texts[m], size) for m, size in enumerate(sizes.tolist()) if size))


def by_key(sizes: np.ndarray, p: int) -> dict[str, int]:
    """class_sizes(p) over its nonempty classes: entry i is key i in p(p - 1)/2 binary digits."""
    n = p * (p - 1) // 2
    return {format(i | 1 << n, "b")[1:]: size for i, size in enumerate(sizes.tolist()) if size}


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_class_sizes_by_label_equal_the_enumerated_reference(p):
    sizes = class_sizes(p)
    assert sizes.shape == (1 << p * (p - 1) // 2,)
    assert list(by_key(sizes, p).items()) == list(enumerated_class_sizes(atlas(p)).items())


def mutated_class_sizes(old: str, new: str):
    """class_sizes with one edit to its source, run in the extension module's namespace."""
    source = inspect.getsource(extension.class_sizes)
    assert source.count(old) == 1, old
    namespace = dict(vars(extension))
    exec(source.replace(old, new), namespace)
    return namespace["class_sizes"]


@pytest.mark.parametrize("old, new", [
    ("images[:, ~diagonal]", "images[:, ~diagonal][:, 1:]"),
    ("<< k\n", "\n"),
], ids=["one-off-diagonal-image-dropped", "the-2^k-weight-dropped"])
def test_a_mutated_class_map_fails_the_enumerated_reference(old, new):
    forged = mutated_class_sizes(old, new)
    for p in (3, 4):
        assert by_key(forged(p), p) != enumerated_class_sizes(atlas(p)), p
    assert by_key(mutated_class_sizes(old, old)(4), 4) == enumerated_class_sizes(atlas(4))


def test_a_self_parity_image_names_its_alpha_basis(monkeypatch):
    """A forged class code on toggle eps_11 of the sixth kind-2 basis at p = 4: the
    rows are eps = 0, then the toggles in superscript order, (0, 0), (0, 1), (1, 1)."""
    p, k, basis = 4, 2, 5
    shells = extension._label_rows(p)
    row = sum(b.shape[0] * (t.shape[1] + 1) for b, t in shells[:k]) + basis * 4 + 3
    real = extension.class_codes

    def forged(bases, p):
        codes = real(bases, p)
        codes[row] ^= 1
        return codes

    monkeypatch.setattr(extension, "class_codes", forged)
    label = CartanSubalgebra.from_basis(p, shells[k][0][basis].tolist()).label
    assert label == "C^{000}_{[0001,1100]}"
    with pytest.raises(InvariantError, match=re.escape(f"{label}: a self-parity toggle moves")):
        class_sizes(p)


def test_the_class_map_is_affine_on_seeded_p7_members():
    """At p = 7, past the enumeration guard: 256 members per shell, each a seeded alpha
    basis with a seeded full toggle vector, lifted through class_codes, land on the code
    code(0) ^ XOR_t eps_t d_t that the single toggles predict."""
    p, rng = 7, np.random.default_rng(7)
    for k, (base, toggles) in enumerate(extension._label_rows(p)):
        t, picks = toggles.shape[1], rng.integers(len(base), size=256)
        eps = rng.integers(0, 2, size=(len(picks), t), dtype=np.int16)
        members = base[picks].copy()
        members[:, :k] ^= np.bitwise_xor.reduce(eps[:, :, None] * toggles[picks], axis=1)
        singles = np.repeat(base[picks][:, None], t + 1, axis=1)
        singles[:, 1:, :k] ^= toggles[picks]
        codes = class_codes(singles.reshape(-1, p), p).reshape(len(picks), t + 1)
        images = codes[:, 1:] ^ codes[:, :1]
        predicted = codes[:, 0] ^ np.bitwise_xor.reduce(eps * images, axis=1)
        assert np.array_equal(class_codes(members, p), predicted), k


@pytest.mark.parametrize("p", [4, 5, 6, 7])
def test_every_class_is_nonempty_and_the_sizes_sum_to_the_atlas(p):
    sizes = class_sizes(p)
    assert (sizes > 0).all() and sizes.sum() == count_total(p)
    assert (sizes.min(), sizes.max()) == (3 << (p - 1), 3**p)


def test_class_sizes_are_guarded():
    for p in (0, 8):
        with pytest.raises(ValueError, match="classes guarded to p <= 7"):
            class_sizes(p)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_batched_span_is_every_element_list(p):
    for k, basis in atlas(p).by_kind.items():
        spans = gf2_span(basis[:, ::-1])
        assert spans.shape == (len(basis), 1 << p)
        assert spans.tolist() == [c.element_keys() for c in atlas(p).members(k)]


def test_parsed_labels_store_the_reference_basis():
    for text in ("C_[0000]", "C^{0}_{[100]}", "C^{110}_{[001,100]}", "C^{101011}_{[001,010,100]}",
                 "C^{1000101110}_{[00011,00101,01000,10001]}"):
        c = parse_label(text)
        assert c.basis_keys == ref_basis(c) and c.parity_table == ref_parity_table(c)
        assert c.label == text


# -- the basis form ---------------------------------------------------------------
#
# A subalgebra is held as its reduced echelon basis; its element set is spanned
# only where it is read.


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_ascending_bases_sort_shells_as_element_lists_do(p):
    rng = random.Random(p)
    for k in atlas(p).by_kind:
        shell = list(atlas(p).members(k))
        shuffled = rng.sample(shell, len(shell))
        by_basis = sorted(shuffled, key=lambda c: c.basis_keys[::-1])
        by_elements = sorted(shuffled, key=lambda c: sorted(c.elements.keys))
        assert [id(c) for c in by_basis] == [id(c) for c in by_elements] == [id(c) for c in shell]
        assert all(c.element_keys() == sorted(c.elements.keys) for c in shell)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_members_round_trip_through_label_and_element_set(p):
    members = list(atlas(p).members())
    assert len(set(members)) == len(members)
    assert [atlas(p).member(i) for i in range(len(members))] == members
    for c in members:
        parsed = parse_label(c.label)
        assert parsed == c and hash(parsed) == hash(c), c.label
        assert CartanSubalgebra(c.elements) == c, c.label


@pytest.mark.parametrize("i", [-1, -2, 15, 16])
def test_a_member_index_outside_the_atlas_names_itself(i):
    """At p = 2 the atlas has 15 members; -1 used to return member 0, and
    15 was reported as member 0."""
    with pytest.raises(IndexError, match=rf"^atlas member {i} out of range 0\.\.14$"):
        atlas(2).member(i)


def test_enumeration_and_classification_build_no_element_set():
    a = enumerate_all(4)
    classify_local(a)
    assert not any("elements" in vars(c) for c in a.members())
    c = next(a.members())
    assert c.elements.keys == set(range(16)) and "elements" in vars(c)
