from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qap
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
    assert run(capsys, "count", "--p", "7")[0] == 2
    assert run(capsys, "enumerate", "--p", "6")[0] == 2
    assert run(capsys, "oracle", "--p", "6")[0] == 2
    assert main(["nonsense"]) == 2


def test_invariant_failures_exit_1(capsys, monkeypatch):
    import qap.cli
    import qap.extension

    monkeypatch.setattr(qap.extension, "count_kind", lambda p, k: 0)
    assert run(capsys, "count", "--p", "2")[0] == 1

    from qap.oracle import OracleReport

    monkeypatch.setattr(qap.cli.oracle, "run_oracle", lambda p: OracleReport(False, 1, ["x"]))
    assert run(capsys, "oracle", "--p", "1")[0] == 1


def test_a_non_monomial_realization_fails_the_oracle_with_its_witness(capsys, monkeypatch):
    """A realization that is not monomial is an invariant failure: exit 1,
    0 checks and the matrix at fault on stdout, nothing on stderr."""
    real = qap.oracle.realize

    def realize(keys, p):
        m = real(keys, p)
        m.re[5] *= 2
        return m

    monkeypatch.setattr(qap.oracle, "realize", realize)
    code = main(["oracle", "--p", "2"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        1, "oracle FAIL: 0 exact matrix checks\nrealization fault: S[01|01] is not a monomial matrix\n", ""
    )


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
# included, stays byte-identical; p = 5 is the CI pin too
ENUMERATE_SHA256 = {
    1: "5f2e452a6ec103e87fb35e3d0539bf77c78391a80dfe3095785f2f8c56ba1f16",
    2: "66114dd3582815296112e37558f23f8e3f08d6dd37c2ad7e5c41fc6e27bd0238",
    3: "b0f28a076700c14d3639c6ea3d89fbe3f11491bcdf6d0d1ddfcbf5a5d751b830",
    4: "9426423536fd88560195343920a2fa1e71620576a66111fe88a4ec98cfe9a98a",
    5: "a0668f180f98c48c7f88b46815503f5da9cb47394a93d2fd675ae83bab41be21",
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
    # `table` is `qap` in text form: the same bytes for every label
    tables, texts, payloads = [], [], []
    for label in seeded_labels(p):
        for argv, outs in ((["table", label], tables), (["qap", label], texts),
                           (["qap", label, "--format", "json"], payloads)):
            code, out = run(capsys, *argv)
            assert code == 0, argv
            outs.append(out)
    assert texts == tables
    digests = tuple(hashlib.sha256("".join(outs).encode()).hexdigest() for outs in (tables, payloads))
    assert digests == LABEL_OUTPUT_SHA256[p]


def test_table_takes_no_format(capsys, monkeypatch):
    # `table` runs the `qap` handler with the format fixed to text; asked for
    # another, argparse refuses it before any partition is built
    import qap.cli

    monkeypatch.setattr(qap.cli, "build_qap", lambda *a, **k: pytest.fail("built a partition"))
    assert main(["table", "C_[000]", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "qap: error: unrecognized arguments: --format json"


def test_verify_and_oracle(capsys):
    code, out = run(capsys, "verify", "--p", "2")
    assert code == 0 and "pass" in out
    code, out = run(capsys, "oracle", "--p", "1")
    assert code == 0 and "pass" in out


def test_oracle_at_its_guard(capsys):
    assert run(capsys, "oracle", "--p", "5") == (0, "oracle pass: 3145728 exact matrix checks\n")


def test_oracle_at_p4(capsys):
    assert run(capsys, "oracle", "--p", "4") == (0, "oracle pass: 196608 exact matrix checks\n")


def test_count_p4(capsys):
    code, out = run(capsys, "count", "--p", "4")
    assert code == 0 and out.strip().endswith("| total 2295")


def test_count_at_its_guard(capsys):
    expected = "1 126 5208 89280 666624 2064384 2097152 | total 4922775\n"
    assert run(capsys, "count", "--p", "6") == (0, expected)


def test_verify_all_135(capsys):
    code, out = run(capsys, "verify", "--p", "3")
    assert code == 0 and "135 partitions" in out


def test_verify_and_connect_draw_what_the_member_lists_drew(capsys, monkeypatch):
    # both commands draw row indices and build only the drawn members; the
    # draws are the ones rng.sample and rng.choice made over the member list
    import qap.cli
    from qap.extension import enumerate_all
    from qap.transform import random_sequence

    members = list(enumerate_all(4).members())
    verified, connected = [], []
    build = qap.cli.build_qap
    monkeypatch.setattr(qap.cli, "build_qap", lambda c, **kw: verified.append(c) or build(c, **kw))
    assert run(capsys, "verify", "--p", "4", "--n", "30", "--seed", "3")[0] == 0
    assert verified == random.Random(3).sample(members, 30)

    def recorded(q, rng):
        connected.append(q.cartan)
        return random_sequence(q, rng)

    monkeypatch.setattr(qap.cli.transform, "random_sequence", recorded)
    assert run(capsys, "connect", "--p", "4", "--n", "12", "--seed", "5")[0] == 0
    rng, expected = random.Random(5), []
    for _ in range(12):
        expected.append(rng.choice(members))
        random_sequence(build(expected[-1]), rng)
    assert connected == expected


def test_classify_text_p3(capsys):
    code, out = run(capsys, "classify", "--p", "3")
    assert code == 0
    assert "8 classes (expected 8), members 135" in out


def test_classify_at_its_guard(capsys):
    code, out = run(capsys, "classify", "--p", "5")
    assert code == 0
    assert out.endswith("1024 classes (expected 1024), members 75735\n")
    assert run(capsys, "classify", "--p", "8")[0] == 2


# sha256 of `qap classify --p <p>` stdout as text and as --format json: read from the
# labels, the class lines and the JSON object stay byte-identical to the enumerated ones
CLASSIFY_SHA256 = {
    1: ("0b5ab5e1e5f55a7289c6b7cbcbde194eedba3095a692d95e9d3ea0c3193b8a52",
        "4cef46ac7c3c99dd09ce3dd1bb4ea60fa2ea14e73b1b507136f71720699c4b41"),
    2: ("8dfe66e0a2cd85d051d336608c453e3300ead2d78b82d373470a13807d6680f5",
        "19de3c05816ecefd3ad86e25f855d9d506f2c2915bec862b037197517b1034f4"),
    3: ("6edb0fdf2b61fe5030fa710afea52433f35a07da434c106a882725220147fe37",
        "88fd6ebe4d89b27bb0a7b4a5bb667a33d942e42e39cce1ab6c77149493be9243"),
    4: ("e94b482a2c54354643cf7cb7a76dd320a80aea79d26e224c0a7216c86f4f42ee",
        "fc6575c2398b5ac124855b8c038bf957f5919a8a406edd289dc10b064bce5cc9"),
    5: ("d79e0e99300dc318237755414891b8d3d57da42841ead7160990fd96f9999513",
        "14f13041244c339ba317513de9d1100add10bc700cd9047a13b150b0794f1008"),
    6: ("6a2eebf0d7772fc170f03e16730025a2b7c7336308cf7678b4f8aa0027712c5d",
        "3acf727f7dbb4c8abd6f3a72b66af2ea913576461a281360daf0a3b904aa36e9"),
}


@pytest.mark.parametrize("p", sorted(CLASSIFY_SHA256))
def test_classify_stdout_is_pinned(capsys, p):
    outs = [run(capsys, "classify", "--p", str(p), *fmt) for fmt in ([], ["--format", "json"])]
    assert [code for code, _ in outs] == [0, 0]
    assert tuple(hashlib.sha256(out.encode()).hexdigest() for _, out in outs) == CLASSIFY_SHA256[p]


def test_classify_enumerates_no_atlas(capsys, monkeypatch):
    import qap.cli

    def fail(p):
        raise AssertionError("classify enumerated the atlas")

    monkeypatch.setattr(qap.cli, "enumerate_all", fail)
    monkeypatch.setattr(qap.extension, "enumerate_all", fail)
    code, out = run(capsys, "classify", "--p", "4")
    assert code == 0 and out.endswith("64 classes (expected 64), members 2295\n")
    assert run(capsys, "count", "--p", "4")[0] == 1  # the patch is live


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


@pytest.mark.parametrize("stage", ["E", "P"])
def test_a_broken_connector_stage_fails_connect(capsys, monkeypatch, stage):
    # E loses its last factor, or P is left out: the rechecks inside
    # connect raise, and the command exits 1 with the failure line
    import qap.cli
    from qap.transform import SymbolicCircuit

    transform = qap.cli.transform
    if stage == "E":
        build_E = transform.build_E
        monkeypatch.setattr(transform, "build_E", lambda a, p: SymbolicCircuit(build_E(a, p).factors[:-1]))
    else:
        monkeypatch.setattr(transform, "build_P", lambda signatures, p: SymbolicCircuit())
    code, out = run(capsys, "connect", "--p", "3", "--n", "5")
    assert code == 1 and out.startswith("connector FAILED after ")
    if stage == "P":
        assert "misses the referential cell at step" in out


def test_connect_at_its_guard(capsys):
    assert run(capsys, "connect", "--p", "5", "--n", "20") == (0, "20/20 sequences connected at p=5 (seed 0)\n")
    assert run(capsys, "connect", "--p", "6")[0] == 2


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


@pytest.mark.parametrize(
    "cell",
    ["B:9/eps:1", "B:1/eps:2", "B:-1/eps:0", "B:8/eps:0",
     "X:1/Y:1", "B:1:9/eps:1", "B:1/eps:1:junk", "B: 1/eps:1"],
)
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
    "argv, err",
    [
        (("table", "C_[0,0]"), "alpha basis words must be nonzero"),
        (("qap", "C_[00,00]"), "alpha basis words must be nonzero"),
        (("lift", "C_[000,000,000]"), "alpha basis words must be nonzero"),
        (("coqa", "C_[00,00]", "--cell", "B:1/eps:1"), "alpha basis words must be nonzero"),
        (("table", "C^{1}_{[00000000000000001]}"), "word width must be in 1..16, got 17"),
    ],
)
def test_label_that_names_no_subalgebra_is_usage_error(capsys, argv, err):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {err}\n"


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


class FullStdout(io.StringIO):
    """A stdout on a full disk: the write or only the flush fails."""

    def __init__(self, failing: str):
        super().__init__()
        self.failing = failing

    def write(self, text: str) -> int:
        if self.failing == "write":
            raise OSError(28, "No space left on device")
        return super().write(text)

    def flush(self) -> None:
        if self.failing == "flush":
            raise OSError(28, "No space left on device")


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_failed_stdout_write_is_usage_error(capsys, monkeypatch, failing):
    monkeypatch.setattr("sys.stdout", FullStdout(failing))
    assert main(["count", "--p", "3"]) == 2
    err = capsys.readouterr().err
    assert err == "error: cannot write stdout: No space left on device\n"


@pytest.mark.skipif(not pathlib.Path("/dev/full").exists(), reason="no /dev/full")
def test_failed_out_write_is_usage_error(capsys):
    assert main(["table", "C^{0}_{[1]}", "--out", "/dev/full"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot write --out /dev/full: No space left on device\n"


@pytest.mark.skipif(not pathlib.Path("/dev/full").exists(), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_full_stdout_exits_2_in_a_real_process(unbuffered):
    # A buffered stdout keeps the unwritten text, and the interpreter's flush
    # at exit would fail again and exit 120 unless the CLI drops the stream.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(pathlib.Path(qap.__file__).parent.parent)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        run = subprocess.run(
            [sys.executable, "-m", "qap", "count", "--p", "3"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    assert run.returncode == 2
    assert run.stderr == "error: cannot write stdout: No space left on device\n"


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
    # still fail, at the partition check, naming the cell that holds it
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
    assert out == "closure FAILED for C_[000]: center S[000|000] lies in B:1/eps:0\n"


def test_partition_fault_with_closure_intact_exits_1(capsys, monkeypatch):
    # flipping index bit p on every key that anti-commutes with S[01|00] is
    # XOR-linear and zero on the center, so the closure law holds on every
    # pair; verify must still fail, at the partition check that runs before
    # the sweep, naming the first key outside every cell
    import qap.cli
    from qap.partition import QAPartition, build_qap
    from qap.spinor import omega

    def tampered_qap(c, verify=True):
        q = build_qap(c, verify)
        keys = np.arange(q.cid.size, dtype=q.cid.dtype)
        cid = q.cid ^ (omega(keys, 1, q.p) << (q.p + 1))
        return QAPartition(q.cartan, q.maxbi, cid)

    monkeypatch.setattr(qap.cli, "build_qap", tampered_qap)
    code, out = run(capsys, "verify", "--p", "2")
    assert code == 1
    assert out == "closure FAILED for C_[00]: S[00|01] has cell id 11, which names no cell\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--p", "1", "--format", "csv"),
        ("qap", "C_[0]", "--format", "csv"),
        ("oracle", "--p", "2", "--seed", "9", "--n", "4", "--format", "csv"),
        ("table", "C_[000]", "--format", "json"),
    ],
)
def test_options_a_command_does_not_read_are_usage_errors(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("cell", ["junk", "B:8/eps:1", "B:0/eps:1"], ids=["malformed", "out-of-range", "degrade"])
def test_coqa_checks_its_cell_before_building_the_partition(capsys, monkeypatch, cell):
    import qap.cli

    calls = []
    real = qap.cli.build_qap
    monkeypatch.setattr(qap.cli, "build_qap", lambda *a, **k: calls.append(a) or real(*a, **k))
    assert main(["coqa", "C_[000]", "--cell", cell]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == []


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


def _call(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


EVERY_COMMAND = [
    ["count", "--p", "1"],
    ["enumerate", "--p", "1"],
    ["table", "C_[0]"],
    ["qap", "C_[0]"],
    ["coqa", "C_[00]", "--cell", "B:1/eps:1"],
    ["verify", "--p", "1"],
    ["oracle", "--p", "1"],
    ["classify", "--p", "1"],
    ["connect", "--p", "1", "--n", "2"],
    ["lift", "C^{1}_{[1]}"],
]


def test_main_builds_no_parser_after_its_first_call(capsys, monkeypatch):
    assert sorted(argv[0] for argv in EVERY_COMMAND) == sorted(qap.cli.GUARDS)
    main(["count", "--p", "1"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    codes = [_call(capsys, argv)[0] for argv in EVERY_COMMAND + [["count", "--seed", "1"], ["--help"]]]
    assert codes == [0] * len(EVERY_COMMAND) + [2, 0]
    assert built == []


def test_the_parser_is_built_on_the_first_call_not_at_import():
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(qap.__file__).parent.parent))
    script = ("import qap.cli as cli; n = cli._build_parser.cache_info().currsize; "
              "cli.main(['count', '--p', '1']); print(n, cli._build_parser.cache_info().currsize)")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                         timeout=60)
    assert (run.returncode, run.stdout) == (0, "1 2 | total 3\n0 1\n"), run.stderr


def test_calls_in_one_process_are_independent(capsys):
    """The same calls give the same results on a freshly built parser and on
    the reused one; a label command's p does not leak into a later default."""
    sequence = [
        ["table", "C_[00000]"],
        ["count"],
        ["qap", "C_[000]", "--p", "4"],
        ["count", "--seed", "1"],
        ["coqa", "C_[000]", "--cell", "B:1/eps:1"],
        ["verify", "--p", "4", "--n", "3", "--seed", "2"],
    ]
    qap.cli._build_parser.cache_clear()
    first = [_call(capsys, argv) for argv in sequence]
    second = [_call(capsys, argv) for argv in sequence]
    assert first == second
    assert [code for code, _, _ in first] == [0, 0, 2, 2, 0, 0]
    assert first[1][1] == "1 14 56 64 | total 135\n"
    assert first[2][2] == "error: label width 3 does not match p=4\n"
    assert "error: unrecognized arguments: --seed 1" in first[3][2]


def test_help_and_argparse_errors_keep_their_exit_codes(capsys):
    calls = [["--help"], ["table", "--help"], []]
    first = [_call(capsys, argv) for argv in calls]
    assert [_call(capsys, argv) for argv in calls] == first
    (top, top_out, top_err), (table, table_out, _), (bare, bare_out, bare_err) = first
    assert top == 0 and top_out.startswith("usage: qap") and top_err == ""
    assert table == 0 and table_out.startswith("usage: qap table")
    assert bare == 2 and bare_out == "" and "error:" in bare_err


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
