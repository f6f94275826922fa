"""Self-tests of the benchmark: tiny-size runs of every workload, exact
per-layer counts, and fault injection showing that each output check fires.

    python -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import run as bench
import tracing

SMOKE = {"atlas": 3, "closure": 3, "connect": 3, "oracle": 2}
CONTRACT = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def smoke(prog, workload, trace=False, seed=7):
    return bench.run(prog, workload, seed, seconds=0.01, trace=trace, p=SMOKE[workload])


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_emits_every_end_to_end_metric(prog, workload):
    result = smoke(prog, workload)
    assert result["correct"], result["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert units(result) == {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_traced_emits_every_per_layer_metric(prog, workload):
    result = smoke(prog, workload, trace=True)
    assert result["correct"], result["failures"]
    assert units(result) == {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert list(result["metrics"]) == tracing.metric_names()
    assert result["tracer"].spans
    assert all(m["value"] >= 0 for name, m in result["metrics"].items() if name.endswith(".self_s"))


def test_scaling_is_additive():
    with bench.Speedometer() as speed:
        marks = [time.perf_counter()]
        for _ in range(3):
            total = 0
            for i in range(500_000):  # Python bytecode, so SIGALRM samples run inside
                total += i
            marks.append(time.perf_counter())
    parts = [speed.scaled(a, b) for a, b in zip(marks, marks[1:])]
    assert all(part > 0 for part in parts)
    assert speed.scaled(marks[0], marks[-1]) == pytest.approx(sum(parts))
    assert len(speed.takes) > 1


def test_contract_lists_the_workloads():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(bench.WORKLOADS)


def originals(prog):
    return {(m.__name__, name): value for m in bench.all_modules(prog)
            for name, value in vars(m).items() if callable(value)}


def test_untraced_run_installs_nothing_and_traced_run_restores(prog):
    before = originals(prog)
    build = prog.subalgebra.MaxBiGroup.__dict__["build"]
    made = prog.bitcore.BitWord.__post_init__
    smoke(prog, "closure")
    assert originals(prog) == before
    smoke(prog, "closure", trace=True)
    assert originals(prog) == before
    assert prog.subalgebra.MaxBiGroup.__dict__["build"] is build
    assert prog.bitcore.BitWord.__post_init__ is made


def test_traced_counts_repeat_exactly_for_a_seed(prog):
    def counts():
        metrics = smoke(prog, "connect", trace=True)["metrics"]
        return {n: m["value"] for n, m in metrics.items() if m["unit"] == "count"}

    assert counts() == counts()


def traced(prog, fn):
    tracer = tracing.Tracer(bench.all_modules(prog))
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer.summary(1, lambda start, end: end - start)


def test_enumeration_counts_at_p4(prog):
    metrics = traced(prog, lambda: prog.extension.enumerate_all(4))
    assert metrics["bitcore.gf2_nullspace.calls"] == 11475
    assert metrics["extension.enumerate_all.members"] == 2295
    assert metrics["extension.members_per_solve"] == pytest.approx(0.2)


def test_closure_pairs_at_p5(prog):
    ops = bench.closure_ops(prog, 5, bench.random.Random(3))[:1]
    metrics = traced(prog, lambda: ops[0].check(ops[0].call()))
    assert metrics["partition.verify_closure.calls"] == 1
    assert metrics["partition.verify_closure.pairs"] == 261888


def test_oracle_checks(prog):
    metrics = traced(prog, lambda: prog.oracle.run_oracle(2))
    assert metrics["oracle.checks"] == 3 * 16 ** 2
    assert metrics["transform.h_matrix.calls"] == 16


def test_independent_helpers_agree_with_the_library(prog):
    for p in range(1, 7):
        assert [bench.count_kind(p, k) for k in range(p + 1)] == [
            prog.extension.count_kind(p, k) for k in range(p + 1)]
        for r in range(1, p + 1):
            assert bench.referential_cell(p, r) == bench.keys_of(
                prog.transform.referential_cell(p, r), p)


# ---------------------------------------------------------------------------
# fault injection: each check must turn a broken program into failed ops


@pytest.fixture
def inject(prog):
    rebinder = tracing.Rebinder(bench.all_modules(prog))
    yield rebinder.replace
    rebinder.restore()


def assert_ops_fail(result):
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["failed"] / result["attempted"] > 0


def test_failing_closure_report_fails_closure_ops(prog, inject):
    report = prog.partition.ClosureReport
    inject("partition.verify_closure", lambda fn: lambda q, **kw: report(False, 0, ["injected"]))
    assert_ops_fail(smoke(prog, "closure"))


def test_missing_table_row_fails_the_row_check(prog, inject):
    inject("partition.render_table",
           lambda fn: lambda q: "".join(fn(q).splitlines(keepends=True)[:3] +
                                        fn(q).splitlines(keepends=True)[4:]))
    result = smoke(prog, "closure")
    assert_ops_fail(result)
    assert result["failed"] == result["attempted"]
    assert any("pair rows" in f for f in result["failures"])
    assert any("golden" in f for f in result["failures"])


def test_altered_enumerate_line_fails_the_digest(prog, inject):
    inject("extension.atlas_jsonl", lambda fn: lambda atlas: fn(atlas).replace('"kind": 0', '"kind": 9', 1))
    result = smoke(prog, "atlas")
    assert_ops_fail(result)
    assert all("sha256" in f for f in result["failures"])
    assert result["failed"] == result["attempted"] // 3


def test_count_mismatch_exits_nonzero(prog, inject):
    inject("extension.count_kind", lambda fn: lambda p, k: fn(p, k) + (k == 1))
    result = smoke(prog, "atlas")
    assert_ops_fail(result)
    assert any("exit 1" in f for f in result["failures"])


def test_wrong_connector_fails_the_recheck(prog, inject):
    t = prog.transform
    bitword = prog.bitcore.BitWord

    def broken(fn):
        def connect(seq):
            p = seq.center.p
            extra = t.BasicTransform(bitword(0, p), bitword(1, p))
            return fn(seq).then(t.SymbolicCircuit.of(extra))
        return connect

    inject("transform.connect", broken)
    result = smoke(prog, "connect")
    assert_ops_fail(result)
    assert result["failed"] == result["attempted"]
    assert all("diagonal" in f for f in result["failures"])


def test_raising_op_counts_as_failed(prog, inject):
    def broken(fn):
        def connect(seq):
            raise ValueError("injected")
        return connect

    inject("transform.connect", broken)
    result = smoke(prog, "connect")
    assert result["failed"] == result["attempted"]
    assert all("ValueError: injected" in f for f in result["failures"])


def test_unreadable_output_counts_as_failed(prog, inject):
    inject("transform.connect", lambda fn: lambda seq: None)
    result = smoke(prog, "connect")
    assert result["failed"] == result["attempted"]
    assert all("unreadable output" in f for f in result["failures"])


def test_failing_oracle_fails_oracle_ops(prog, inject):
    report = prog.oracle.OracleReport
    inject("oracle.check_products", lambda fn: lambda p: report(False, 1, ["injected"]))
    assert_ops_fail(smoke(prog, "oracle"))


def test_golden_mismatch_fails_the_run(prog, inject):
    inject("partition.render_table", lambda fn: lambda q: fn(q) + " ")
    result = smoke(prog, "oracle")
    assert not result["correct"]
    assert any(f.startswith("golden") for f in result["failures"])


def test_exits_nonzero_without_the_program():
    bare = bench.OUT / "bare"  # inside the checkout, ignored by git
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(bench.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "atlas", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60, check=False)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
