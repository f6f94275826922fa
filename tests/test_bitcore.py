from __future__ import annotations

import ast
import importlib.util
import itertools
import os
import pathlib
import subprocess
import sys
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qap
from qap.bitcore import (
    BitWord,
    BitSubgroup,
    InvariantError,
    dot,
    gf2_reduce,
    parity,
    solve_affine,
    span,
)
from test_coset_construction import maximal_subgroups

W = BitWord.parse


def words(p: int):
    return st.integers(0, (1 << p) - 1).map(lambda b: BitWord(b, p))


def test_parse_and_str_roundtrip():
    assert str(W("101")) == "101"
    assert W("101").bits == 5
    assert W("101").p == 3
    with pytest.raises(ValueError):
        W("10a")
    with pytest.raises(ValueError):
        BitWord(8, 3)


def test_units_are_positional_from_the_left():
    assert str(BitWord(1 << (3 - 1), 3)) == "100"
    assert str(BitWord(1 << (3 - 3), 3)) == "001"


def test_dot_examples():
    assert dot(W("000"), W("101")) == 0
    assert dot(W("101"), W("001")) == 1
    assert dot(W("011"), W("011")) == 0


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        dot(W("01"), W("011"))
    with pytest.raises(ValueError):
        W("01") ^ W("011")


@given(words(4), words(4), words(4))
def test_dot_bilinearity(a, b, c):
    assert dot(a ^ b, c) == dot(a, c) ^ dot(b, c)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                   np.uint8, np.uint16, np.uint32, np.uint64])
def test_array_parity_reads_every_bit_of_its_dtype(dtype):
    """The folded table lookup against int.bit_count over the full two's-complement
    width, extremes and negatives included, in x & 1's dtype."""
    info, rng = np.iinfo(dtype), np.random.default_rng(np.dtype(dtype).itemsize)
    x = rng.integers(info.min, info.max, 4096, dtype=dtype, endpoint=True)
    x[:4] = info.min, info.max, 0, -1 if info.min else 1
    width = 8 * x.dtype.itemsize
    want = np.array([(int(v) % (1 << width)).bit_count() & 1 for v in x.tolist()])
    square = np.s_[:, ::3]  # and a strided view
    for arr, ref in ((x, want), (x.reshape(64, 64)[square], want.reshape(64, 64)[square])):
        got = parity(arr)
        assert got.dtype == (arr & 1).dtype == dtype and got.shape == arr.shape
        assert got.tolist() == ref.tolist()
    assert parity(x[7]) == want[7] and parity(int(x[7]) % (1 << width)) == want[7]


def test_span_examples():
    empty = span([], p=3)
    assert empty.rank == 0 and len(empty) == 1
    assert [str(w) for w in empty.members()] == ["000"]

    g = span([W("001"), W("010")])
    assert g.rank == 2
    assert [str(w) for w in g.members()] == ["000", "001", "010", "011"]

    g2 = span([W("011"), W("101"), W("110")])
    assert g2.rank == 2
    assert [str(w) for w in g2.members()] == ["000", "011", "101", "110"]


@given(st.lists(words(4), max_size=5))
def test_span_contains_generators_and_is_closed(gens):
    g = span(gens, p=4)
    members = g.members()
    assert len(members) == 1 << g.rank
    for w in gens:
        assert w in g
    for a, b in itertools.product(members[:8], repeat=2):
        assert (a ^ b) in g


def test_maximal_subgroups_of_z2_squared():
    g = span([W("01"), W("10")])
    subs = maximal_subgroups(g)
    listed = [tuple(str(w) for w in s.members()) for s in subs]
    assert listed == [("00", "01"), ("00", "10"), ("00", "11")]


def test_maximal_subgroups_count_and_distinctness():
    for rank, p in ((3, 3), (2, 4)):
        gens = [BitWord(1 << i, p) for i in range(rank)]
        g = span(gens)
        subs = maximal_subgroups(g)
        assert len(subs) == (1 << rank) - 1
        assert len({s.basis for s in subs}) == len(subs)
        for s in subs:
            assert s.rank == rank - 1
            assert s.is_subgroup_of(g)


def test_maximal_subgroups_of_trivial_group_empty():
    assert maximal_subgroups(span([], p=3)) == []


@dataclass(frozen=True)
class Coset:
    leader: BitWord
    elements: tuple[BitWord, ...]


def cosets(h: BitSubgroup, g: BitSubgroup) -> list[Coset]:
    """Partition of g into cosets of h, ordered by lex-smallest leader."""
    if not h.is_subgroup_of(g):
        raise ValueError("h is not a subgroup of g")
    hrows = [b.bits for b in reversed(h.basis)]
    buckets: dict[int, list[int]] = {}
    for v in g.member_bits():
        buckets.setdefault(gf2_reduce(v, hrows), []).append(v)
    out = []
    for vals in buckets.values():
        vals.sort()
        out.append(Coset(BitWord(vals[0], g.p), tuple(BitWord(v, g.p) for v in vals)))
    out.sort(key=lambda c: c.leader.bits)
    return out


def test_cosets_examples():
    g = span([W("001"), W("010")])
    h = span([W("001")])
    cs = cosets(h, g)
    assert [str(c.leader) for c in cs] == ["000", "010"]
    assert [tuple(str(w) for w in c.elements) for c in cs] == [
        ("000", "001"),
        ("010", "011"),
    ]

    whole = cosets(g, g)
    assert len(whole) == 1 and len(whole[0].elements) == 4

    trivial = cosets(span([], p=3), span([W("100")]))
    assert [str(c.leader) for c in trivial] == ["000", "100"]
    assert all(len(c.elements) == 1 for c in trivial)


def test_cosets_requires_subgroup():
    with pytest.raises(ValueError):
        cosets(span([W("100")]), span([W("001")]))


@given(st.lists(words(4), min_size=1, max_size=4), st.integers(0, 4))
def test_cosets_partition_property(gens, take):
    g = span(gens, p=4)
    h = span(gens[: min(take, len(gens))], p=4)
    cs = cosets(h, g)
    seen = [w.bits for c in cs for w in c.elements]
    assert sorted(seen) == sorted(w.bits for w in g.members())
    assert all(len(c.elements) == len(h) for c in cs)


def test_solve_affine_examples():
    assert solve_affine([], 3) == W("000").bits
    assert solve_affine([(W("100").bits, 1)], 3) == W("100").bits
    assert solve_affine([(W("10").bits, 1), (W("10").bits, 0)], 2) is None


@given(
    st.integers(2, 5).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.lists(st.tuples(words(p), st.integers(0, 1)), max_size=4),
        )
    )
)
def test_solve_affine_agrees_with_brute_force(case):
    p, constraints = case
    got = solve_affine([(w.bits, b) for w, b in constraints], p)
    brute = [
        x
        for x in range(1 << p)
        if all((x & w.bits).bit_count() & 1 == b for w, b in constraints)
    ]
    if not brute:
        assert got is None
    else:
        assert got is not None and got == min(brute)


PACKAGE = pathlib.Path(qap.__file__).parent


def test_package_has_no_assert_statements():
    """Invariants raise InvariantError, which python -O does not strip."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_modules_use_every_name_they_import():
    """An import left behind by a deletion fails here; __init__.py
    imports to re-export, so it is exempt."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}:{node.lineno}:{name}")
    assert unused == []


# top-level names outside qap.__all__ that nothing else in the package reads
UNREFERENCED_ON_PURPOSE = {
    "phase_type_generator_keys": "perfbench/tracing.py wraps it by name; see test_traced_names_resolve",
    "h_matrix": "the one-transform case of h_matrices, used by tests; perfbench/tracing.py counts it",
}


# methods and properties of package classes that nothing in the package
# reads, dunders aside: public API or reference code for the tests
UNREAD_METHODS_ON_PURPOSE = {
    "BitWord.is_zero": "public BitWord predicate; tests read it on a spinor's zeta",
    "QAPartition.cell_of": "public lookup of a spinor's cell; tests build sequences with it",
    "Spinor.make": "the public constructor from zeta and alpha words that README and tests use",
    "Spinor.display": "README's hermitian-norm text form of a spinor",
    "GaussianMatrix.scaled": "reference-only: tests scale realized products by it (ROADMAP item 4)",
    "CartanSubalgebra.alpha_group": "the paper's group of binary partitionings, checked by tests",
    "CartanSubalgebra.phase_block": "the paper's phase block of one alpha, checked by tests",
    "BiSubalgebra.is_maximal": "public predicate of a bi-subalgebra in qap.__all__; tests read it",
    "MaxBiGroup.index_of": "public lookup of a member's index in G(C), in qap.__all__; tests read it",
}


def test_package_defines_only_what_it_exports_or_reads():
    """A top-level function or class outside qap.__all__ that no other code
    in the package reads is dead code, and so is a method or property no
    package code reads by name, unless listed above with a reason; a listed
    name that is read or gone fails too, so each list stays tight."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    defined = {
        node.name for tree in trees for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    unread = defined - read - set(qap.__all__)
    assert sorted(unread - set(UNREFERENCED_ON_PURPOSE)) == []
    assert sorted(set(UNREFERENCED_ON_PURPOSE) - unread) == []
    unread_methods = {
        f"{node.name}.{item.name}"
        for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name not in read
        and not (item.name.startswith("__") and item.name.endswith("__"))
    }
    assert sorted(unread_methods - set(UNREAD_METHODS_ON_PURPOSE)) == []
    assert sorted(set(UNREAD_METHODS_ON_PURPOSE) - unread_methods) == []


def test_traced_names_resolve(monkeypatch):
    """perfbench/tracing.py wraps every SPANNED and COUNTED target by name when
    a traced run installs; a deleted or renamed one would crash that run."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for target in tracing.SPANNED + tracing.COUNTED:
        module, name, *method = target.split(".")
        owner = vars(importlib.import_module(f"qap.{module}"))
        if name not in owner or method and method[0] not in vars(owner[name]):
            missing.append(target)
    assert missing == []


def _run_optimized(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    return subprocess.run(
        [sys.executable, "-O", *args], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.mark.parametrize(
    "argv,stdout",
    [
        (("oracle", "--p", "2"), "oracle pass: 768 exact matrix checks\n"),
        (("verify", "--p", "2"), "verify pass: 15 partitions at p=2, 900 anti-commuting pairs checked\n"),
    ],
    ids=["oracle", "verify"],
)
def test_cli_under_python_O(argv, stdout):
    proc = _run_optimized("-m", "qap", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, stdout, "")


def test_a_realization_fault_fails_the_oracle_under_python_O():
    """The oracle's verdict on a non-monomial realization is a report, not an
    assert, so it holds with asserts stripped."""
    proc = _run_optimized("-c", (
        "import sys, qap.cli, qap.oracle\n"
        "real = qap.oracle.realize\n"
        "def realize(keys, p):\n"
        "    m = real(keys, p)\n"
        "    m.re[5] *= 2\n"
        "    return m\n"
        "qap.oracle.realize = realize\n"
        "sys.exit(qap.cli.main(['oracle', '--p', '2']))\n"
    ))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "oracle FAIL: 0 exact matrix checks\nrealization fault: S[01|01] is not a monomial matrix\n", ""
    )


def test_a_partition_fault_fails_verify_under_python_O():
    """verify_closure's partition check is a report, not an assert, so a
    cell-id array whose keys name no cell fails verify with asserts
    stripped, although the closure law holds on every pair of it."""
    proc = _run_optimized("-c", (
        "import sys, numpy as np, qap.cli\n"
        "from qap.partition import QAPartition, build_qap\n"
        "from qap.spinor import omega\n"
        "def tampered_qap(c, verify=True):\n"
        "    q = build_qap(c, verify)\n"
        "    keys = np.arange(q.cid.size, dtype=q.cid.dtype)\n"
        "    cid = q.cid ^ (omega(keys, 1, q.p) << (q.p + 1))\n"
        "    return QAPartition(q.cartan, q.maxbi, cid)\n"
        "qap.cli.build_qap = tampered_qap\n"
        "sys.exit(qap.cli.main(['verify', '--p', '2']))\n"
    ))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "closure FAILED for C_[00]: S[00|01] has cell id 11, which names no cell\n", ""
    )


def test_invariants_survive_python_O():
    proc = _run_optimized("-c", "from qap.spinor import Spinor; Spinor.make(1, 1)")
    assert proc.returncode == 1
    assert "qap.bitcore.InvariantError: integer words need an explicit width p" in proc.stderr
    assert issubclass(InvariantError, AssertionError)
