"""The repository scripts: what they refuse before they run, and what they check."""

from __future__ import annotations

import importlib.util
import pathlib
import subprocess
import sys

import pytest

from qap.extension import count_kind

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git(repo: pathlib.Path, *args: str) -> None:
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo,
                   check=True, capture_output=True)


def test_bench_record_sees_a_dirty_tree(tmp_path):
    """A BENCH file names the commit it measured only if the change side is
    that commit: an edit, an untracked file or a missing repository is dirty."""
    dirty_files = load("bench_record").dirty_files
    assert dirty_files(tmp_path)
    git(tmp_path, "init", "-q")
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / ".gitignore").write_text("out/\n")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "init")
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "run.json").write_text("{}\n")
    assert dirty_files(tmp_path) == []
    (tmp_path / "a.py").write_text("x = 2\n")
    assert dirty_files(tmp_path) == [" M a.py"]
    git(tmp_path, "checkout", "-q", "a.py")
    (tmp_path / "b.py").write_text("")
    assert dirty_files(tmp_path) == ["?? b.py"]


def test_atlas_report_prints_the_classes_and_exits_0():
    proc = subprocess.run([sys.executable, "-O", str(ROOT / "scripts" / "atlas_report.py"), "3"],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert any(line.split()[:3] == ["8", "local", "classes,"] for line in proc.stdout.splitlines())


def test_atlas_report_exits_1_on_a_shell_off_the_closed_form(monkeypatch, capsys):
    """The check is not an assert, so it holds under python -O too."""
    report = load("atlas_report")
    monkeypatch.setattr(report, "count_kind", lambda p, k: count_kind(p, k) + (p == 2))
    assert report.main(3) == 1
    out, err = capsys.readouterr()
    assert err == "p=2: shells by kind [1, 6, 8], closed form [2, 7, 9]\n"
    assert out.startswith("p=1: total 3") and "p=2" not in out


@pytest.mark.parametrize("argv, message", [
    (["0"], "max_p must be in 1..6, got 0"),
    (["7"], "max_p must be in 1..6, got 7"),
    (["x"], "max_p must be an integer, got 'x'"),
    (["3", "y"], "seed must be an integer, got 'y'"),
    (["3", "0", "1"], "at most two arguments, max_p and seed, got 3"),
])
def test_atlas_report_refuses_a_bad_argument_before_any_work(argv, message):
    """A max_p off 1..6 (7 is past the enumeration guard), a non-integer or a third
    argument is one error line and exit 2, with nothing enumerated or printed."""
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "atlas_report.py"), *argv],
                          capture_output=True, text=True, check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


def test_atlas_report_passes_zero_one_or_two_integers_to_main():
    parse_args = load("atlas_report").parse_args
    assert parse_args([]) == []
    assert parse_args(["6"]) == [6]
    assert parse_args(["1", "-3"]) == [1, -3]
