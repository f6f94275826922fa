from __future__ import annotations

import itertools
import random

import pytest

from conftest import atlas
from qap.bitcore import BitWord, gf2_echelon, gf2_span, solve_affine, span
from qap.partition import build_qap, qap_to_json, render_table
from qap.spinor import Spinor, bi_add, commutes, omega, spinor_of_key
from qap.subalgebra import (
    BiSubalgebra,
    CartanSubalgebra,
    SpinorSet,
    all_maximal,
    build_kth_kind,
    commuting_bisubalgebra,
    dual_map,
    format_label,
    intrinsic_cartan,
    is_cartan,
    _scan_label,
    parse_label,
    sqcap,
)
from test_coset_construction import bit_type_maximal, maximal_subgroups, phase_type_maximal

S = Spinor.make
W = BitWord.parse


def spinor_strs(ss: SpinorSet) -> list[str]:
    return [str(s) for s in ss.spinors()]


# -- construction against the worked su(8) sets -----------------------------

FIRST_KIND_SET = [
    "S[000|000]", "S[001|000]", "S[010|000]", "S[011|000]",
    "S[100|100]", "S[101|100]", "S[110|100]", "S[111|100]",
]

SECOND_KIND_SET = [
    "S[000|000]", "S[011|000]", "S[010|011]", "S[001|011]",
    "S[111|100]", "S[100|100]", "S[101|111]", "S[110|111]",
]

THIRD_KIND_SET = [
    "S[000|000]", "S[101|001]", "S[100|010]", "S[001|011]",
    "S[111|100]", "S[010|101]", "S[011|110]", "S[110|111]",
]


def test_intrinsic_examples():
    c1 = intrinsic_cartan(1)
    assert spinor_strs(c1.elements) == ["S[0|0]", "S[1|0]"]
    c3 = intrinsic_cartan(3)
    assert spinor_strs(c3.elements) == [f"S[{z:03b}|000]" for z in range(8)]
    assert c3.kind == 0
    assert c3.label == "C_[000]"


def test_membership_checks_the_width():
    # S[01|00] packs to key 1, the key of S[001|000] at p = 3
    c = intrinsic_cartan(3)
    assert S("001", "000") in c and S("001", "000") in c.elements and 1 in c
    assert S("01", "00") not in c and S("01", "00") not in c.elements
    assert S("0001", "0000") not in SpinorSet(3, range(8))


def test_spinor_set_membership_takes_a_numpy_key():
    q = build_qap(intrinsic_cartan(3))
    key = q.maxbi.keys[3]
    assert not isinstance(key, int)
    assert key in q.cells[(0, 1)] and key in q.cartan.elements
    assert key not in q.cells[(1, 0)]


def test_build_first_kind_matches_worked_set():
    c = build_kth_kind([S("100", "100")])
    assert sorted(spinor_strs(c.elements)) == sorted(FIRST_KIND_SET)
    assert c.kind == 1
    assert c.label == "C^{1}_{[100]}"


def test_build_second_kind_matches_worked_set():
    c = build_kth_kind([S("010", "011"), S("111", "100")])
    assert sorted(spinor_strs(c.elements)) == sorted(SECOND_KIND_SET)
    assert c.kind == 2
    assert c.label == "C^{101}_{[011,100]}"


def test_build_third_kind_matches_worked_set():
    c = build_kth_kind([S("101", "001"), S("100", "010"), S("111", "100")])
    assert sorted(spinor_strs(c.elements)) == sorted(THIRD_KIND_SET)
    assert c.kind == 3
    assert c.label == "C^{101011}_{[001,010,100]}"


def test_build_rejects_bad_generators():
    with pytest.raises(ValueError):
        build_kth_kind([S("101", "001"), S("100", "001")])  # dependent alphas
    with pytest.raises(ValueError):
        build_kth_kind([S("001", "001"), S("000", "011")])  # anti-commuting
    with pytest.raises(ValueError):
        build_kth_kind([S("000", "000")])  # zero partitioning


def test_parity_table_bilinearity():
    c = build_kth_kind([S("010", "011"), S("111", "100")])
    t = c.parity_table
    # composite generator alpha_3 = alpha_1 + alpha_2 has parity e11+e22
    g3 = bi_add(c.generators[0], c.generators[1])
    from qap.bitcore import dot

    assert dot(g3.zeta, g3.alpha) == t[0][0] ^ t[1][1]


def test_alpha_multiplicity():
    c = build_kth_kind([S("010", "011"), S("111", "100")])
    for a in c.alpha_group.members():
        block = c.phase_block(a.bits)
        assert len(block) == 1 << (c.p - c.kind)


def test_is_cartan_examples():
    assert is_cartan(intrinsic_cartan(3).elements)
    assert is_cartan(SpinorSet.parse(THIRD_KIND_SET))
    broken = [t for t in FIRST_KIND_SET if t != "S[100|100]"] + ["S[000|100]"]
    assert not is_cartan(SpinorSet.parse(broken))


def test_is_cartan_rejects_non_maximal_candidates():
    # closed commuting set of the wrong size
    small = SpinorSet.parse(["S[000|000]", "S[001|000]"])
    assert not is_cartan(small)


@pytest.mark.parametrize("s", [
    SpinorSet(5, gf2_span([1 << (10 + i) for i in range(5)])),
    SpinorSet(1, {0, 4}),
], ids=["p5-above-4^p", "p1-above-4^p"])
def test_is_cartan_rejects_keys_outside_the_width(s):
    # a commuting rank-p span of 2^p keys, but of keys no spinor of width p has
    assert not is_cartan(s)
    with pytest.raises(ValueError, match="not a Cartan subalgebra"):
        CartanSubalgebra(s)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_no_key_outside_a_cartan_subalgebra_commutes_with_all_of_it(p):
    # why is_cartan needs no maximality scan: each member is a Lagrangian
    # subspace, so every other key anti-commutes with some basis key
    for c in atlas(p).members():
        outside = set(range(1 << (2 * p))) - c.elements.keys
        assert all(any(omega(x, b, p) for b in c.basis_keys) for x in outside), c.label


# -- maximal bi-subalgebras --------------------------------------------------


def test_bit_type_examples():
    c = parse_label("C^{0}_{[100]}")
    b = bit_type_maximal(c, span([], p=3))
    assert spinor_strs(b.elements) == [
        "S[000|000]", "S[001|000]", "S[010|000]", "S[011|000]",
    ]
    assert b.flavor == "bit_type"

    with pytest.raises(ValueError):
        bit_type_maximal(intrinsic_cartan(3), span([], p=3))

    c4 = parse_label("C^{101000}_{[001,010,100]}")
    b4 = bit_type_maximal(c4, span([W("001"), W("010")]))
    assert spinor_strs(b4.elements) == [
        "S[000|000]", "S[101|001]", "S[000|010]", "S[101|011]",
    ]


def test_phase_type_examples():
    c = intrinsic_cartan(3)
    kernel = span([W("010"), W("100")])
    b = phase_type_maximal(c, kernel, 0)
    assert spinor_strs(b.elements) == [
        "S[000|000]", "S[010|000]", "S[100|000]", "S[110|000]",
    ]
    assert b.flavor == "phase_type"

    c3 = parse_label("C^{110}_{[001,100]}")
    b4 = phase_type_maximal(c3, span([], p=3), 0)
    assert spinor_strs(b4.elements) == [
        "S[000|000]", "S[101|001]", "S[001|100]", "S[100|101]",
    ]


def test_bit_type_rejects_wrong_rank():
    c = parse_label("C^{101011}_{[001,010,100]}")
    with pytest.raises(ValueError):
        bit_type_maximal(c, span([W("001")]))  # rank 1, need rank 2


def test_bit_type_rejects_non_subgroup():
    c = parse_label("C^{101}_{[011,100]}")  # alpha group {000,011,100,111}
    with pytest.raises(ValueError):
        bit_type_maximal(c, span([W("001")]))  # not a subgroup of the alpha group


def test_phase_type_rejects_bad_kernel():
    c = intrinsic_cartan(3)
    with pytest.raises(ValueError):
        phase_type_maximal(c, span([W("001")]), 0)  # rank 1, need rank 2
    with pytest.raises(ValueError):
        phase_type_maximal(c, span([W("011"), W("100")]), 4)  # bad choice mask for k=0


@pytest.mark.parametrize(
    "label", ["C_[000]", "C^{1}_{[100]}", "C^{101}_{[011,100]}", "C^{101011}_{[001,010,100]}"]
)
def test_phase_type_count(label):
    c = parse_label(label)
    p, k = c.p, c.kind
    seen = set()
    for kernel in maximal_subgroups(c.diag_phase_group):
        for choice in range(1 << k):
            seen.add(phase_type_maximal(c, kernel, choice).elements.keys)
    assert len(seen) == ((1 << (p - k)) - 1) << k


def test_all_maximal_intrinsic_matches_reference_sets():
    g = all_maximal(intrinsic_cartan(3))
    assert len(g.members) == 8
    expected = {
        1: ["S[000|000]", "S[010|000]", "S[100|000]", "S[110|000]"],
        2: ["S[000|000]", "S[001|000]", "S[100|000]", "S[101|000]"],
        3: ["S[000|000]", "S[011|000]", "S[100|000]", "S[111|000]"],
        4: ["S[000|000]", "S[001|000]", "S[010|000]", "S[011|000]"],
        5: ["S[000|000]", "S[010|000]", "S[101|000]", "S[111|000]"],
        6: ["S[000|000]", "S[001|000]", "S[110|000]", "S[111|000]"],
        7: ["S[000|000]", "S[011|000]", "S[101|000]", "S[110|000]"],
    }
    for i, elems in expected.items():
        assert spinor_strs(g.members[i].elements) == elems


def test_all_maximal_counts_across_atlas(atlas3):
    for c in atlas3.members():
        g = all_maximal(c)
        assert len(g.members) == 8
        assert len({b.elements.keys for b in g.members}) == 8
        flavors = {b.flavor for b in g.members[1:]}
        if c.kind == 0:
            assert flavors == {"phase_type"}
        elif c.kind == c.p:
            assert flavors == {"bit_type"}
        else:
            assert flavors == {"bit_type", "phase_type"}


def test_sqcap_laws():
    c = parse_label("C^{110}_{[001,100]}")
    g = all_maximal(c)
    whole = g.members[0]
    b = g.members[3]
    assert sqcap(whole, b).elements == b.elements
    assert sqcap(b, b).elements == c.elements
    for i, j in itertools.product(range(8), repeat=2):
        got = sqcap(g.members[i], g.members[j])
        assert got.elements == g.members[i ^ j].elements


def test_sqcap_rejects_different_parents():
    g1 = all_maximal(intrinsic_cartan(3))
    g2 = all_maximal(parse_label("C^{1}_{[100]}"))
    with pytest.raises(ValueError):
        sqcap(g1.members[1], g2.members[1])


def test_intrinsic_index_law_is_alpha_xor():
    g = all_maximal(intrinsic_cartan(3))
    for alpha in range(1, 8):
        expected = frozenset(
            z for z in range(8) if (z & alpha).bit_count() & 1 == 0
        )
        assert {k & 7 for k in g.members[alpha].elements.keys} == set(expected)


# -- the unique commuting bi-subalgebra --------------------------------------


def test_commuting_bisubalgebra_inside_returns_whole():
    c = intrinsic_cartan(3)
    b = commuting_bisubalgebra(S("011", "000"), c)
    assert b.elements == c.elements


def test_commuting_bisubalgebra_reference_case():
    b = commuting_bisubalgebra(S("101", "011"), intrinsic_cartan(3))
    assert spinor_strs(b.elements) == [
        "S[000|000]", "S[011|000]", "S[100|000]", "S[111|000]",
    ]


def test_commuting_bisubalgebra_vs_bruteforce_sample(atlas3):
    from qap.subalgebra import key_of, spinor_of_key, omega

    members = list(atlas3.members())[::9]
    for c in members:
        for key in range(0, 64, 5):
            s = spinor_of_key(key, 3)
            got = commuting_bisubalgebra(s, c)
            brute = frozenset(
                k for k in c.elements.keys if not omega(k, key, 3)
            )
            assert got.elements.keys == brute
            # every element outside anti-commutes
            for k in c.elements.keys - brute:
                assert omega(k, key, 3)


def test_unique_commutant_membership_lemma(atlas3):
    # any element of c commuting with s lies in the commuting bi-subalgebra
    c = list(atlas3.members())[77]
    s = S("110", "101")
    b = commuting_bisubalgebra(s, c)
    for t in c.elements.spinors():
        if commutes(s, t):
            assert t in b.elements


# -- duality and labels -------------------------------------------------------


def test_dual_examples():
    c = intrinsic_cartan(3)
    d = dual_map(c)
    assert d.kind == 3
    assert all(s.zeta.is_zero for s in d.elements.spinors())
    assert dual_map(d) == c

    ex3 = SpinorSet.parse(THIRD_KIND_SET)
    dual3 = dual_map(CartanSubalgebra(ex3))
    assert is_cartan(dual3.elements)


def test_label_roundtrip(atlas2):
    for c in atlas2.members():
        assert parse_label(format_label(c)) == c


def test_label_errors():
    with pytest.raises(ValueError):
        parse_label("C^{10}_{[001,100]}")  # not enough parities for k=2
    with pytest.raises(ValueError):
        parse_label("nonsense")
    with pytest.raises(ValueError):
        parse_label("C^{1}_{[000]}")
    # only a single all-zero word names the 0th kind
    for label in ("C_[0,0]", "C_[00,00]", "C_[000,000,000]"):
        with pytest.raises(ValueError, match="^alpha basis words must be nonzero$"):
            parse_label(label)


def ref_parse_label(text: str) -> CartanSubalgebra:
    """The word-object parse: BitWord alphas, Spinor generators and the
    validating from_generators."""
    parities, words = _scan_label(text.replace(" ", ""))
    alpha_words = [BitWord.parse(a) for a in words]
    width = alpha_words[0].p
    if alpha_words == [BitWord(0, width)]:
        return intrinsic_cartan(width)
    k = len(alpha_words)
    eps = [[0] * k for _ in range(k)]
    it = iter(parities)
    for r in range(k):
        for s in range(r, k):
            eps[r][s] = eps[s][r] = int(next(it))
    gens = []
    for i, a in enumerate(alpha_words):
        z = solve_affine([(alpha_words[j].bits, eps[i][j]) for j in range(k)], width)
        gens.append(Spinor(BitWord(z, width), a))
    return CartanSubalgebra.from_generators(gens)


def random_label(rng: random.Random, p: int, k: int) -> str:
    """A kind-k label over k random independent alpha words in the order
    drawn, so mostly not in echelon form, with random parities."""
    if k == 0:
        return f"C_[{'0' * p}]"
    words: list[int] = []
    while len(words) < k:
        w = rng.randrange(1, 1 << p)
        if len(gf2_echelon(words + [w])) > len(words):
            words.append(w)
    parities = "".join(str(rng.randrange(2)) for _ in range(k * (k + 1) // 2))
    return f"C^{{{parities}}}_{{[{','.join(format(w, f'0{p}b') for w in words)}]}}"


@pytest.mark.parametrize("p", range(1, 7))
def test_parse_label_matches_the_word_object_reference(p):
    rng = random.Random(p)
    labels = [random_label(rng, p, k) for k in range(p + 1) for _ in range(60)]
    unsorted = 0
    for label in labels:
        got, want = parse_label(label), ref_parse_label(label)
        assert (got.basis_keys, got.label) == (want.basis_keys, want.label), label
        words = [int(w, 2) for w in _scan_label(label)[1]]
        unsorted += words != sorted(words)
    assert p == 1 or unsorted > 0


def test_parse_label_builds_no_word_objects(monkeypatch):
    made = []
    for cls in (BitWord, Spinor):
        real = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self, real=real: made.append(self) or real(self))

    def refuse(cls, gens):
        raise AssertionError("from_generators called")

    monkeypatch.setattr(CartanSubalgebra, "from_generators", classmethod(refuse))
    rng = random.Random(7)
    cs = [parse_label(random_label(rng, p, k)) for p in range(1, 7) for k in range(p + 1)]
    assert made == [] and [c.kind for c in cs] == [k for p in range(1, 7) for k in range(p + 1)]


@pytest.mark.parametrize("label", ["C_[00,000]", "C^{101}_{[01,100]}", "C^{101}_{[100,01]}"])
def test_label_with_mixed_width_alpha_words_is_rejected(label):
    with pytest.raises(ValueError, match="differ in width"):
        parse_label(label)


def test_bisubalgebra_validation():
    c = intrinsic_cartan(2)
    with pytest.raises(ValueError):
        BiSubalgebra(SpinorSet.parse(["S[01|00]", "S[10|00]"]), c)  # not closed
    with pytest.raises(ValueError):
        BiSubalgebra(SpinorSet.parse(["S[00|00]", "S[01|01]"]), c)  # not subset


def test_spinor_set_parse_rejects_mixed_widths():
    with pytest.raises(ValueError, match="^width mismatch: 3 vs 2$"):
        SpinorSet.parse(["S[01|00]", "S[001|000]"])


def test_bisubalgebra_rejects_a_parent_of_another_width():
    # keys 0 and 1 are S[00|00], S[01|00] at p = 2 and a subset of C_[000]
    with pytest.raises(ValueError, match="^width mismatch: 2 vs 3$"):
        BiSubalgebra(SpinorSet(2, [0, 1]), intrinsic_cartan(3))


def test_commuting_bisubalgebra_rejects_a_spinor_of_another_width():
    with pytest.raises(ValueError, match="^width mismatch: 3 vs 2$"):
        commuting_bisubalgebra(Spinor.parse("S[000|101]"), intrinsic_cartan(2))


def test_printing_a_partition_builds_no_bisubalgebra(monkeypatch):
    """G(C) is its arrays: build, render and dump read them, and members,
    built on first read, equal the commutants of the coset leaders."""
    made = []
    real = BiSubalgebra.__init__
    monkeypatch.setattr(
        BiSubalgebra, "__init__", lambda self, *a: made.append(a) or real(self, *a)
    )
    for label in ("C_[000]", "C^{110}_{[001,100]}", "C^{101011}_{[001,010,100]}", "C^{1}_{[0110]}"):
        c = parse_label(label)
        q = build_qap(c)
        render_table(q), qap_to_json(q)
        assert made == [] and len(q.maxbi) == 1 << c.p, label
        eager = [commuting_bisubalgebra(spinor_of_key(v, c.p), c) for v in q.maxbi.leaders]
        assert q.maxbi.members == eager == list(q.maxbi)
        for i, b in enumerate(eager):
            assert q.pair(i).determinant == b and q.maxbi.index_of(b) == i
        made.clear()
    with pytest.raises(KeyError):
        q.maxbi.index_of(BiSubalgebra(SpinorSet(c.p, [0]), c))  # not maximal


def test_index_of_needs_the_same_parent():
    """B = C_[000] ∩ C^{0}_{[100]} is member 4 of the first group as a key set, but
    as a bi-subalgebra of the second subalgebra it belongs to no member of the first."""
    c1, c2 = intrinsic_cartan(3), parse_label("C^{0}_{[100]}")
    g = all_maximal(c1)
    b = BiSubalgebra(SpinorSet(3, c1.elements.keys & c2.elements.keys), c2)
    assert b.is_maximal() and g.members[4].elements == b.elements
    assert g.index_of(BiSubalgebra(b.elements, c1)) == 4
    with pytest.raises(KeyError):
        g.index_of(b)
