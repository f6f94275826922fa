from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qap.cli import main

FIXTURE_DIR = pathlib.Path(__file__).parent / "fixtures"

GOLDEN = {
    "table_C_000.txt": "C_[000]",
    "table_C0_100.txt": "C^{0}_{[100]}",
    "table_C110_001-100.txt": "C^{10}_{[001,100]}",  # caption alias
    "table_C101000_001-010-100.txt": "C^{100}_{[001,010,100]}",  # caption alias
}


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_count_text(capsys):
    code, out = run(capsys, "count", "--p", "3")
    assert code == 0
    assert out.strip() == "1 14 56 64 | total 135"
    code, out = run(capsys, "count", "--p", "1")
    assert code == 0
    assert out.strip() == "1 2 | total 3"


def test_count_json_and_csv(capsys):
    code, out = run(capsys, "count", "--p", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"p": 2, "by_kind": [1, 6, 8], "total": 15}
    code, out = run(capsys, "count", "--p", "2", "--format", "csv")
    assert out.splitlines()[0] == "kind,count" and out.splitlines()[-1] == "total,15"


@pytest.mark.parametrize("fixture,label", sorted(GOLDEN.items()))
def test_table_golden(capsys, fixture, label):
    code, out = run(capsys, "table", label)
    assert code == 0
    assert out == (FIXTURE_DIR / fixture).read_text(encoding="utf-8")


def test_table_rejects_garbage(capsys):
    code, _ = run(capsys, "table", "C^{9}_{[100]}")
    assert code == 2


def test_guard_violations_are_usage_errors(capsys):
    assert run(capsys, "count", "--p", "6")[0] == 2
    assert run(capsys, "oracle", "--p", "4")[0] == 2
    assert main(["nonsense"]) == 2


def test_invariant_failures_exit_1(capsys, monkeypatch):
    import qap.cli
    import qap.extension

    monkeypatch.setattr(qap.extension, "count_kind", lambda p, k: 0)
    assert run(capsys, "count", "--p", "2")[0] == 1

    from qap.oracle import OracleReport

    monkeypatch.setattr(qap.cli.oracle, "run_oracle", lambda p: OracleReport(False, 1, ["x"]))
    assert run(capsys, "oracle", "--p", "1")[0] == 1


def test_qap_json(capsys):
    code, out = run(capsys, "qap", "C_[00]", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == 0 and len(payload["cells"]) == 8


def test_enumerate_jsonl(capsys):
    code, out = run(capsys, "enumerate", "--p", "2")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 15
    assert {r["kind"] for r in rows} == {0, 1, 2}


# sha256 of `qap enumerate --p <p>` stdout: the atlas JSONL, member order
# included, stays byte-identical
ENUMERATE_SHA256 = {
    2: "66114dd3582815296112e37558f23f8e3f08d6dd37c2ad7e5c41fc6e27bd0238",
    3: "b0f28a076700c14d3639c6ea3d89fbe3f11491bcdf6d0d1ddfcbf5a5d751b830",
    4: "9426423536fd88560195343920a2fa1e71620576a66111fe88a4ec98cfe9a98a",
}


@pytest.mark.parametrize("p", sorted(ENUMERATE_SHA256))
def test_enumerate_stdout_is_pinned(capsys, p):
    code, out = run(capsys, "enumerate", "--p", str(p))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_SHA256[p]


def seeded_labels(p: int) -> list[str]:
    """One label per kind 0..p: seeded independent alpha words and parities."""
    rng = random.Random(p)
    labels = [f"C_[{'0' * p}]"]
    for k in range(1, p + 1):
        words: list[int] = []
        span = {0}
        while len(words) < k:
            w = rng.randrange(1, 1 << p)
            if w not in span:
                words.append(w)
                span |= {x ^ w for x in span}
        parities = "".join(str(rng.randrange(2)) for _ in range(k * (k + 1) // 2))
        labels.append(f"C^{{{parities}}}_{{[{','.join(format(w, f'0{p}b') for w in words)}]}}")
    return labels


# sha256 of the concatenated stdout of `qap table <label>` and of
# `qap qap <label> --format json` over seeded_labels(p), pinned when the
# partition still kept its cells as sets and rebuilt the cell-id array to
# verify it
LABEL_OUTPUT_SHA256 = {
    2: ("9fdef239308ceaf6fa3cfb15db33a74cd398b42496ffce0e7bbe77b05f1c4064",
        "6e7571368fbb17d4ab6b501ce0a4aba249a491122eba89017a04acdb66a154cc"),
    3: ("b59c677f91065f9968b6d1337349744eb106cff6d67ce782aced89edbd818607",
        "6afb9c51a45a32530554e5f2d35f5db2e3d28146dddebcd00574f086514f0dc2"),
    4: ("f3a97d3507081490508d6287cdd564d6fb65fe967ddfdc4957f823f41cd75dff",
        "986338aaf0acfda9be14755d10f746ac2ab4162a8d66a08ed66c86e605d5061b"),
    5: ("9d066fc2265e5e7db3c777bb96a75bcee281f16fe5300a6ae64b7a1f3c3c0765",
        "1886559921c3b7b6615b51c964fb42e2573ad097ea58ac7df3b20fa8c99326cd"),
    6: ("c443bbc8103f23415a4c95fc9428bd082005f19f4230809791543c989553659a",
        "60f1662b0396510f0f028eab7a78376473db595f0d83b16a42dd2834287ab3da"),
}


@pytest.mark.parametrize("p", sorted(LABEL_OUTPUT_SHA256))
def test_table_and_qap_json_stdout_are_pinned(capsys, p):
    tables, payloads = [], []
    for label in seeded_labels(p):
        for argv, outs in ((["table", label], tables), (["qap", label, "--format", "json"], payloads)):
            code, out = run(capsys, *argv)
            assert code == 0, argv
            outs.append(out)
    digests = tuple(hashlib.sha256("".join(outs).encode()).hexdigest() for outs in (tables, payloads))
    assert digests == LABEL_OUTPUT_SHA256[p]


def test_verify_and_oracle(capsys):
    code, out = run(capsys, "verify", "--p", "2")
    assert code == 0 and "pass" in out
    code, out = run(capsys, "oracle", "--p", "1")
    assert code == 0 and "pass" in out


def test_count_p4(capsys):
    code, out = run(capsys, "count", "--p", "4")
    assert code == 0 and out.strip().endswith("| total 2295")


def test_verify_all_135(capsys):
    code, out = run(capsys, "verify", "--p", "3")
    assert code == 0 and "135 partitions" in out


def test_classify_text_p3(capsys):
    code, out = run(capsys, "classify", "--p", "3")
    assert code == 0
    assert "8 classes (expected 8), members 135" in out


def test_label_parse_error_reports_position(capsys):
    code = main(["table", "C_[000"])
    captured = capsys.readouterr()
    assert code == 2
    assert "position" in captured.err


def test_classify(capsys):
    code, out = run(capsys, "classify", "--p", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["expected"] == 2


def test_connect_deterministic(capsys):
    code, first = run(capsys, "connect", "--p", "2", "--seed", "42", "--n", "10")
    assert code == 0 and first.strip().startswith("10/10")
    _, second = run(capsys, "connect", "--p", "2", "--seed", "42", "--n", "10")
    assert first == second


def test_lift(capsys):
    code, out = run(capsys, "lift", "C^{1}_{[100]}", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == 3 and payload["local"] is True


def test_coqa(capsys):
    code, out = run(capsys, "coqa", "C_[000]", "--cell", "B:1/eps:1")
    assert code == 0
    assert "irregular: {B:0/eps:1, B:1/eps:0}" in out
    assert sum(1 for ln in out.splitlines() if ln.startswith("regular")) == 6
    assert run(capsys, "coqa", "C_[000]", "--cell", "junk")[0] == 2


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "table.txt"
    code, out = run(capsys, "table", "C_[00]", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8").startswith("C_[00]")


def test_verify_p3_stdout_is_pinned(capsys):
    code, out = run(capsys, "verify", "--p", "3")
    assert code == 0
    assert out == "verify pass: 135 partitions at p=3, 136080 anti-commuting pairs checked\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--p", "3", "--n", "5", "--seed", "9"),
        ("verify", "--p", "3", "--n", "5"),
        ("verify", "--p", "1", "--seed", "0"),
        ("verify", "--n", "100"),
    ],
)
def test_verify_rejects_sampling_flags_where_it_checks_every_partition(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: verify checks every partition at p <= 3; --n and --seed apply from p = 4\n"
    )


@pytest.mark.parametrize("cell", ["B:9/eps:1", "B:1/eps:2", "B:-1/eps:0", "B:8/eps:0"])
def test_coqa_unknown_cell_is_usage_error(capsys, cell):
    code = main(["coqa", "C_[000]", "--cell", cell])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--p", "4", "--n", "0"),
        ("verify", "--p", "2", "--n", "-3"),
        ("connect", "--p", "2", "--n", "0"),
    ],
)
def test_trial_count_below_one_is_usage_error(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: --n must be at least 1")
    assert captured.out == ""


def test_mixed_width_label_is_usage_error(capsys):
    code = main(["table", "C_[00,000]"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: alpha words 00,000 differ in width\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "C_[000]"),
        ("qap", "C^{0}_{[100]}", "--format", "json"),
        ("coqa", "C_[000]", "--cell", "B:1/eps:1"),
        ("lift", "C^{1}_{[100]}"),
    ],
)
def test_label_commands_check_an_explicit_p(capsys, argv):
    code, plain = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, "--p", "3") == (0, plain)
    for p in ("2", "9"):
        code = main([*argv, "--p", p])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: label width 3 does not match p={p}\n"


def test_commands_without_a_label_default_to_p3(capsys):
    assert run(capsys, "count") == (0, "1 14 56 64 | total 135\n")
    assert run(capsys, "oracle") == (0, "oracle pass: 12288 exact matrix checks\n")


def test_unwritable_out_is_usage_error(capsys, tmp_path):
    for argv in (
        ("count", "--p", "2", "--out", str(tmp_path / "missing" / "x.txt")),
        ("table", "C^{1}_{[1]}", "--out", str(tmp_path)),
    ):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: cannot write --out {argv[-1]}: ")
        assert "Traceback" not in captured.err


def test_out_is_checked_before_the_work(capsys, monkeypatch, tmp_path):
    import qap.cli

    def fail(p):
        raise AssertionError("enumeration ran before --out was checked")

    monkeypatch.setattr(qap.cli, "enumerate_all", fail)
    bad = str(tmp_path / "missing" / "x.txt")
    assert main(["count", "--p", "2", "--out", bad]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write --out {bad}: ")
    good = tmp_path / "x.txt"
    good.write_text("kept", encoding="utf-8")
    assert main(["count", "--p", "2", "--out", str(good)]) == 1
    assert "enumeration ran before" in capsys.readouterr().err
    assert good.read_text(encoding="utf-8") == "kept"


def test_failed_command_leaves_no_new_out_file(capsys, tmp_path):
    # the --out probe creates a missing file; a command that then fails
    # before writing must not leave it behind
    new = tmp_path / "new.txt"
    for argv, code in (
        (["table", "BADLABEL"], 2),
        (["count", "--p", "9"], 2),
        (["connect", "--p", "3", "--n", "0"], 2),
    ):
        assert main(argv + ["--out", str(new)]) == code
        assert capsys.readouterr().err.startswith("error: ")
        assert not new.exists()
    assert main(["count", "--p", "2", "--out", str(new)]) == 0
    assert new.read_text(encoding="utf-8") == "1 6 8 | total 15\n"


def test_identity_outside_the_center_exits_1(capsys, monkeypatch):
    # key 0 moved out of the center breaks no closure triple; verify must
    # still fail, naming the cell that holds it
    import qap.cli
    from qap.partition import QAPartition, build_qap

    def tampered_qap(c, verify=True):
        q = build_qap(c, verify)
        cid = q.cid.copy()
        cid[0] = (1 << 1) | 0  # out of cell (0,1), into cell (1,0)
        return QAPartition(q.cartan, q.maxbi, cid)

    monkeypatch.setattr(qap.cli, "build_qap", tampered_qap)
    code, out = run(capsys, "verify", "--p", "3")
    assert code == 1
    assert out == (
        "closure FAILED for C_[000]: "
        "['identity S[000|000] lies in B:1/eps:0, not in B:0/eps:1']\n"
    )


def test_coqa_degrade_center_is_usage_error(capsys):
    for cell in ("B:0/eps:0", "B:0/eps:1"):
        code = main(["coqa", "C_[000]", "--cell", cell])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: cell '{cell}' is degrade")


def test_library_value_error_is_an_invariant_failure(capsys, monkeypatch):
    import qap.cli

    def broken(q):
        raise ValueError("broken renderer")

    monkeypatch.setattr(qap.cli, "render_table", broken)
    code = main(["table", "C_[00]"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "invariant failure: broken renderer\n"


def _bits(min_size: int, max_size: int):
    return st.text(alphabet="01", min_size=min_size, max_size=max_size)


@st.composite
def _near_labels(draw) -> str:
    """Labels from the grammar's pieces: alpha words of one width <= 4 (now
    and then one of another width), a superscript of the right length or
    of any length, with or without braces."""
    width = draw(st.integers(1, 4))
    words = draw(st.lists(_bits(width, width), min_size=1, max_size=width))
    if draw(st.integers(0, 4)) == 0:
        words.append(draw(_bits(1, 4)))
    n = len(words) * (len(words) + 1) // 2
    parities = draw(st.one_of(_bits(n, n), _bits(0, 7)))
    if draw(st.booleans()):
        return f"C^{{{parities}}}_{{[{','.join(words)}]}}"
    return f"C^{parities}_[{','.join(words)}]"


_LABELS = st.one_of(
    st.text(alphabet="C^_{}[],01", max_size=24),
    st.text(max_size=12),
    _near_labels(),
    st.builds(lambda w: f"C_[{w}]", _bits(1, 4)),
)

_CELLS = st.one_of(
    st.text(alphabet="B:eps/-0123456789", max_size=12),
    st.builds(lambda i, e: f"B:{i}/eps:{e}", st.integers(-2, 17), st.integers(-1, 2)),
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from(["table", "qap", "lift", "coqa"]),
    _LABELS,
    _CELLS,
)
def test_label_and_cell_fuzz_never_escapes(command, label, cell):
    argv = [command, label] + (["--cell", cell] if command == "coqa" else [])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
