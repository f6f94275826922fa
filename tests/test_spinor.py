from __future__ import annotations

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qap.bitcore import BitWord
from qap.spinor import (
    GaussianMatrix,
    PhasedSpinor,
    Spinor,
    bi_add,
    commutes,
    key_conjugate,
    key_product,
    key_self_parity,
    key_text,
    key_texts,
    omega,
    product,
    realize,
    self_parity,
    to_matrix,
)

S = Spinor.make


def identity_spinor(p: int) -> Spinor:
    return Spinor(BitWord(0, p), BitWord(0, p))


def phased_product(s: PhasedSpinor, t: PhasedSpinor) -> PhasedSpinor:
    base = product(s.body, t.body)
    return PhasedSpinor(s.i_exp + t.i_exp + base.i_exp, base.body)


def spinors(p: int):
    word = st.integers(0, (1 << p) - 1)
    return st.tuples(word, word).map(
        lambda zw: Spinor(BitWord(zw[0], p), BitWord(zw[1], p))
    )


def all_spinors(p: int) -> list[Spinor]:
    return [
        Spinor(BitWord(z, p), BitWord(a, p))
        for a in range(1 << p)
        for z in range(1 << p)
    ]


def test_text_forms():
    s = S("101", "001")
    assert str(s) == "S[101|001]"
    assert Spinor.parse("S[101|001]") == s
    assert s.display(hermitian_norm=True) == "i·S[101|001]"
    assert S("100", "010").display(hermitian_norm=True) == "S[100|010]"
    assert Spinor.parse("i·S[101|001]") == s


@pytest.mark.parametrize("hermitian_norm", [False, True])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_key_texts_is_key_text_of_every_key(p, hermitian_norm):
    assert key_texts(p, hermitian_norm) == tuple(key_text(k, p, hermitian_norm) for k in range(4**p))
    assert key_texts(p, hermitian_norm) is key_texts(p, hermitian_norm)


def test_bi_add_examples():
    s = S("011", "101")
    assert bi_add(identity_spinor(3), s) == s
    assert bi_add(s, s) == identity_spinor(3)
    assert bi_add(S("101", "001"), S("100", "010")) == S("001", "011")


def test_product_examples():
    t = S("110", "011")
    assert phased_product(PhasedSpinor(0, identity_spinor(3)), PhasedSpinor(0, t)) == (
        PhasedSpinor(0, t)
    )
    assert product(S("001", "010"), S("010", "001")) == PhasedSpinor(2, S("011", "011"))
    assert product(S("100", "100"), S("100", "100")) == PhasedSpinor(2, identity_spinor(3))


def test_commutes_examples():
    s = S("011", "110")
    assert commutes(s, s)
    assert not commutes(S("001", "001"), S("000", "001"))
    first_kind = [S(z, "000") for z in ("000", "001", "010", "011")] + [
        S(z, "100") for z in ("100", "101", "110", "111")
    ]
    for a, b in itertools.combinations(first_kind, 2):
        assert commutes(a, b)


def test_self_parity_examples():
    assert self_parity(identity_spinor(3)) == 0
    assert self_parity(S("100", "100")) == 1
    assert self_parity(S("101", "111")) == 0


def test_matrix_p1_examples():
    eye = GaussianMatrix(np.eye(2), np.zeros((2, 2)))
    assert to_matrix(S("0", "0")) == eye
    x = to_matrix(S("0", "1"))
    assert np.array_equal(x.re, [[0, 1], [1, 0]]) and not x.im.any()
    m = to_matrix(S("1", "1"))
    assert np.array_equal(m.re, [[0, 1], [-1, 0]]) and not m.im.any()
    hm = to_matrix(S("1", "1"), hermitian_norm=True)
    assert np.array_equal(hm.im, [[0, 1], [-1, 0]]) and not hm.re.any()


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_times_i_pow_returns_fresh_arrays(k):
    m = GaussianMatrix(np.array([[1, 2], [3, 4]]), np.array([[5, 6], [7, 8]]))
    out = m.times_i_pow(k)
    for a in (out.re, out.im):
        assert not np.shares_memory(a, m.re) and not np.shares_memory(a, m.im)


def test_writing_into_a_matrix_leaves_later_realizations_alone():
    # at p = 1 a realization used to share memory with the factor table for
    # a phase of i or -i, so this write turned S[0|1] into [[0, 5], [1, 0]]
    before = {s: to_matrix(s).scaled(1) for s in all_spinors(1)}
    for k in range(4):
        for s in all_spinors(1):
            m = to_matrix(PhasedSpinor(k, s))
            m.re[0, 1], m.im[0, 1] = 5, 5
    assert {s: to_matrix(s) for s in all_spinors(1)} == before
    assert to_matrix(S("0", "1")) == GaussianMatrix(np.array([[0, 1], [1, 0]]), np.zeros((2, 2)))


# the one-qubit factor of S[epsilon|a]: |0><a| + (-1)^epsilon |1><1+a|
ONE_QUBIT = {
    (0, 0): np.array([[1, 0], [0, 1]]),
    (1, 0): np.array([[1, 0], [0, -1]]),
    (0, 1): np.array([[0, 1], [1, 0]]),
    (1, 1): np.array([[0, 1], [-1, 0]]),
}


@pytest.mark.parametrize("p", [1, 2, 3])
def test_realize_matches_numpy_kron_folded_over_the_factors(p):
    stack = realize(np.arange(1 << (2 * p)), p)
    assert stack.re.shape == (4**p, 2**p, 2**p) and not stack.im.any()
    for key in range(4**p):
        z, a = key & ((1 << p) - 1), key >> p
        bits = [((z >> (p - pos)) & 1, (a >> (p - pos)) & 1) for pos in range(1, p + 1)]
        assert np.array_equal(stack.re[key], functools.reduce(np.kron, [ONE_QUBIT[b] for b in bits]))
        assert realize(key, p) == GaussianMatrix(stack.re[key], stack.im[key])


def test_hermitian_norm_makes_hermitian():
    for s in all_spinors(2):
        m = to_matrix(s, hermitian_norm=True)
        assert m == m.dagger()


@pytest.mark.parametrize("p", [1, 2])
def test_matrix_oracle_products_exhaustive(p):
    mats = {s: to_matrix(s) for s in all_spinors(p)}
    for s, t in itertools.product(mats, repeat=2):
        assert mats[s] @ mats[t] == to_matrix(product(s, t))
        st_mat = mats[s] @ mats[t]
        ts_mat = mats[t] @ mats[s]
        assert commutes(s, t) == (st_mat == ts_mat)
        if not commutes(s, t):
            assert st_mat == ts_mat.times_i_pow(2)


@given(spinors(3), spinors(3))
def test_bi_additive_of_commuting_pair_commutes_with_both(s, t):
    if commutes(s, t):
        u = bi_add(s, t)
        assert commutes(u, s) and commutes(u, t)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_bi_additive_of_commuting_pair_exhaustive(p):
    pool = all_spinors(p)
    for s, t in itertools.combinations(pool, 2):
        if commutes(s, t):
            u = bi_add(s, t)
            assert commutes(u, s) and commutes(u, t)


@given(spinors(4), spinors(4), spinors(4))
def test_bi_add_group_laws(a, b, c):
    assert bi_add(bi_add(a, b), c) == bi_add(a, bi_add(b, c))
    assert bi_add(a, b) == bi_add(b, a)
    assert bi_add(a, identity_spinor(4)) == a


@given(spinors(3), spinors(3))
def test_phase_product_associates_with_matrices(s, t):
    ps, pt = PhasedSpinor(1, s), PhasedSpinor(2, t)
    assert to_matrix(phased_product(ps, pt)) == to_matrix(ps) @ to_matrix(pt)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_each_rule_has_equal_int_and_array_forms(p, dtype):
    """Every key rule on a whole (x, y) grid of numpy keys, through the
    XOR-fold parity, equals the rule on each pair of Python ints."""
    n = 1 << (2 * p)
    xs, ys = np.arange(n, dtype=dtype)[:, None], np.arange(n, dtype=dtype)[None, :]
    pairs = [[(x, y) for y in range(n)] for x in range(n)]

    def grid(rule):
        return [[rule(x, y) for x, y in row] for row in pairs]

    def pairs_of(e, body):
        return [list(zip(*rows)) for rows in zip(e.tolist(), body.tolist())]

    assert key_self_parity(ys[0], p).tolist() == [key_self_parity(y, p) for y in range(n)]
    assert omega(xs, ys, p).tolist() == grid(lambda x, y: omega(x, y, p))
    assert pairs_of(*key_product(xs, ys, p)) == grid(lambda x, y: key_product(x, y, p))
    for inverse in (False, True):
        assert pairs_of(*key_conjugate(xs, inverse, ys, p)) == grid(
            lambda h, y: key_conjugate(h, inverse, y, p)
        )


def test_spinor_ordering_is_alpha_major():
    a = S("111", "001")
    b = S("000", "010")
    assert a < b
    assert sorted([b, a]) == [a, b]


def test_oracle_guard():
    s = Spinor(BitWord(0, 7), BitWord(0, 7))
    with pytest.raises(ValueError):
        to_matrix(s)
