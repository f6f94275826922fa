"""The repository scripts: what they refuse before they run."""

from __future__ import annotations

import importlib.util
import pathlib
import subprocess

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
