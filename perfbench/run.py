"""Benchmark of the qap toolkit: four workloads, each in its own process.

One workload, with the JSON result as the last line of stdout:

    python3 perfbench/run.py --workload closure --seed 1 --seconds 25 --trace 0

All four workloads, one process each, then a summary table:

    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics and installs nothing in the
program.  ``--trace 1`` alternates untraced and traced blocks and reports
the per-layer metrics; the spans go to ``.bench_out/``.  Every op's output
is checked; the run exits 1 if any check fails.  README.md beside this file
explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
OUT = ROOT / ".bench_out"

WORKLOADS = ("atlas", "closure", "connect", "oracle")
SIZES = {"atlas": 4, "closure": 5, "connect": 5, "oracle": 3}
MODULES = ("bitcore", "spinor", "subalgebra", "partition", "extension", "transform",
           "oracle", "cli")
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms",
              "peak_rss_mb": "MB"}

SETUP_REPEATS = 3
PROBE_LOOPS = 5_000
PROBE_SECONDS = 0.0005  # the probe's time at reference speed (README.md)
SAMPLE_EVERY = 0.025
CLOSURE_LABELS_PER_KIND = 3
CONNECT_OPS = 100

# sha256 of `qap enumerate --p <p>` stdout: the atlas JSONL must stay byte-identical.
ENUMERATE_SHA256 = {
    2: "66114dd3582815296112e37558f23f8e3f08d6dd37c2ad7e5c41fc6e27bd0238",
    3: "b0f28a076700c14d3639c6ea3d89fbe3f11491bcdf6d0d1ddfcbf5a5d751b830",
    4: "9426423536fd88560195343920a2fa1e71620576a66111fe88a4ec98cfe9a98a",
}

# (fixture file, label as the CLI takes it): the byte-exact su(8) tables.
GOLDEN = (
    ("table_C_000.txt", "C_[000]"),
    ("table_C0_100.txt", "C^{0}_{[100]}"),
    ("table_C110_001-100.txt", "C^{10}_{[001,100]}"),
    ("table_C101000_001-010-100.txt", "C^{100}_{[001,010,100]}"),
)


class ProgramMissing(RuntimeError):
    """The checkout holds no qap sources or golden fixtures to run."""


def load_program() -> SimpleNamespace:
    """Import the qap package from the checkout's ``src/``, single-threaded."""
    if not (SRC / "qap" / "__init__.py").is_file():
        raise ProgramMissing(f"no qap package under {SRC}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.dont_write_bytecode = True  # the run writes nothing into src/
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"qap.{name}") for name in MODULES}
    return SimpleNamespace(package=importlib.import_module("qap"), **mods)


def all_modules(prog: SimpleNamespace) -> list:
    return [prog.package] + [getattr(prog, name) for name in MODULES]


# ---------------------------------------------------------------------------
# ops and their output checks


@dataclass
class Op:
    name: str
    call: Callable[[], object]  # the timed part
    check: Callable[[object], Optional[str]]  # untimed; a failure message or None


def cli_op(prog: SimpleNamespace, argv: list[str],
           check_stdout: Callable[[str], Optional[str]]) -> Op:
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = prog.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(result) -> Optional[str]:
        code, out, err = result
        if code != 0:
            return f"exit {code}: {err.strip()[:200]}"
        return check_stdout(out)

    return Op("qap " + " ".join(argv), call, check)


def equals(expected: str) -> Callable[[str], Optional[str]]:
    return lambda out: None if out == expected else f"stdout {out[:120]!r} != {expected!r}"


def count_kind(p: int, k: int) -> int:
    """2^(k(k+1)/2) times the Gaussian binomial [p choose k] at q = 2."""
    n = 1 << (k * (k + 1) // 2)
    for i in range(k):
        n = n * ((1 << (p - i)) - 1) // ((1 << (i + 1)) - 1)
    return n


def random_label(rng: random.Random, p: int, k: int) -> str:
    """A kind-k label with a random independent alpha list and random parities."""
    if k == 0:
        return f"C_[{'0' * p}]"
    words: list[int] = []
    span = {0}
    while len(words) < k:
        w = rng.randrange(1, 1 << p)
        if w not in span:
            words.append(w)
            span |= {x ^ w for x in span}
    parities = "".join(str(rng.randrange(2)) for _ in range(k * (k + 1) // 2))
    return f"C^{{{parities}}}_{{[{','.join(format(w, f'0{p}b') for w in words)}]}}"


SPINOR = re.compile(r"S\[([01]+)\|([01]+)\]")
FACTOR = re.compile(r"h'?\[([01]+)\|([01]+)\]")


def keys_of(spinor_set, p: int) -> frozenset[int]:
    """Packed (alpha << p) | zeta keys, read from the printed spinors."""
    return frozenset((int(a, 2) << p) | int(z, 2)
                     for z, a in (SPINOR.fullmatch(str(s)).groups() for s in spinor_set))


def image(keys: frozenset[int], factors: list[int], p: int) -> frozenset[int]:
    """Set image under conjugation by basic transformations h[zeta|alpha]
    (packed like spinors), phases dropped: a spinor anti-commuting with the
    factor's spinor is bi-added to it, every other one is fixed."""
    mask = (1 << p) - 1
    for h in factors:
        ha, hz = h >> p, h & mask
        keys = frozenset(
            k ^ h if ((hz & (k >> p)).bit_count() + (ha & k & mask).bit_count()) & 1 else k
            for k in keys
        )
    return keys


def referential_cell(p: int, r: int) -> frozenset[int]:
    """Odd-self-parity spinors at the unit partitioning with printed bit r."""
    beta = 1 << (p - r)
    return frozenset((beta << p) | z for z in range(1 << p) if (z & beta).bit_count() & 1)


def connector_check(p: int, center: frozenset[int], steps: list[frozenset[int]]):
    diagonal = frozenset(range(1 << p))

    def check(circuit) -> Optional[str]:
        factors = [(int(a, 2) << p) | int(z, 2) for z, a in
                   (FACTOR.fullmatch(f).groups() for f in reversed(circuit.factor_strings()))]
        if image(center, factors, p) != diagonal:
            return f"{circuit} does not map the center onto the diagonal subalgebra"
        for r, cell in enumerate(steps, start=1):
            if image(cell, factors, p) != referential_cell(p, r):
                return f"{circuit} misses the referential cell at step {r}"
        return None

    return check


# ---------------------------------------------------------------------------
# workloads: each function makes the fixed op list from a seeded rng


def atlas_ops(prog, p: int, rng: random.Random) -> list[Op]:
    counts = [count_kind(p, k) for k in range(p + 1)]
    total = sum(counts)
    classes = 1 << (p * (p - 1) // 2)
    tail = f"{classes} classes (expected {classes}), members {total}\n"
    digest = ENUMERATE_SHA256[p]

    def classified(out: str) -> Optional[str]:
        return None if out.endswith(tail) else f"classify ends {out[-80:]!r}"

    def digested(out: str) -> Optional[str]:
        got = hashlib.sha256(out.encode()).hexdigest()
        return None if got == digest else f"enumerate sha256 {got} != {digest}"

    size = ["--p", str(p)]
    return [
        cli_op(prog, ["count", *size], equals(f"{' '.join(map(str, counts))} | total {total}\n")),
        cli_op(prog, ["classify", *size], classified),
        cli_op(prog, ["enumerate", *size], digested),
    ]


def closure_ops(prog, p: int, rng: random.Random) -> list[Op]:
    labels = [random_label(rng, p, k) for k in range(p + 1)
              for _ in range(CLOSURE_LABELS_PER_KIND)]
    rng.shuffle(labels)
    row = re.compile(r"B_\d+ \| W: ")
    ops = []
    for text in labels:
        canonical = prog.subalgebra.parse_label(text).label

        def check(out: str, canonical=canonical) -> Optional[str]:
            lines = out.splitlines()
            if not lines or lines[0] != canonical:
                return f"table header {lines[:1]} != {canonical!r}"
            rows = sum(1 for line in lines if row.match(line))
            return None if rows == (1 << p) - 1 else f"{rows} pair rows, expected {(1 << p) - 1}"

        ops.append(cli_op(prog, ["table", text], check))
    return ops


def connect_ops(prog, p: int, rng: random.Random) -> list[Op]:
    """Library calls over a pool of verified partitions, one per kind,
    reused across ops the way ``qap connect`` caches them.  Ops take the
    pool in turn, so every seed runs the same mix of kinds."""
    pool = [prog.partition.build_qap(prog.subalgebra.parse_label(random_label(rng, p, k)))
            for k in range(p + 1)]
    ops = []
    for i in range(CONNECT_OPS):
        q = pool[i % len(pool)]
        seq = prog.transform.random_sequence(q, rng)
        center = keys_of(seq.center.elements, p)
        steps = [keys_of(cell, p) for cell in seq.steps]
        ops.append(Op(f"connect #{i} on {q.cartan.label}",
                      lambda seq=seq: prog.transform.connect(seq),
                      connector_check(p, center, steps)))
    return ops


def oracle_ops(prog, p: int, rng: random.Random) -> list[Op]:
    return [cli_op(prog, ["oracle", "--p", str(p)],
                   equals(f"oracle pass: {3 * 16 ** p} exact matrix checks\n"))]


OP_LISTS = {"atlas": atlas_ops, "closure": closure_ops, "connect": connect_ops,
            "oracle": oracle_ops}


def golden_failures(prog) -> list[str]:
    """Render the su(8) golden tables and compare them byte for byte."""
    if not FIXTURES.is_dir():
        raise ProgramMissing(f"no golden fixtures under {FIXTURES}")
    failures = []
    for fixture, label in GOLDEN:
        op = cli_op(prog, ["table", label],
                    equals((FIXTURES / fixture).read_text(encoding="utf-8")))
        msg = op.check(op.call())
        if msg:
            failures.append(f"golden {fixture}: {msg}")
    return failures


# ---------------------------------------------------------------------------
# measurement


class Speedometer:
    """Samples the machine's speed while the benchmark runs.

    SIGALRM fires every SAMPLE_EVERY seconds and its handler times one pass
    of a fixed pure-Python loop, the probe, which never touches the program.
    ``scaled`` turns a measured interval into seconds at reference speed.
    Time spent in probes counts zero.  Between two probes, time counts at
    PROBE_SECONDS over the mean of the two probe times.  The scaling is
    additive, so a span's scaled time is the sum of its parts.  Call it
    after the ``with`` block, once every sample is in."""

    def __init__(self):
        self.starts: list[float] = []
        self.takes: list[float] = []
        self._sampling = False

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        self._sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        n = len(self.takes)
        self._rate = [2 * PROBE_SECONDS / (self.takes[i] + self.takes[min(i + 1, n - 1)])
                      for i in range(n)]
        self._clock = [0.0]  # reference seconds at the end of each probe
        for i in range(n - 1):
            gap = self.starts[i + 1] - self.starts[i] - self.takes[i]
            self._clock.append(self._clock[-1] + gap * self._rate[i])

    def _sample(self, *_signal) -> None:
        if self._sampling:  # a probe slower than SAMPLE_EVERY: skip, keep starts sorted
            return
        self._sampling = True
        start = time.perf_counter()
        acc = 0
        for x in range(PROBE_LOOPS):
            k = (x * 40503) & 0xFFF
            if k in _PROBE_KEYS:
                acc += (k ^ x).bit_count() & 1
        self.takes.append(time.perf_counter() - start)
        self.starts.append(start)
        self._sampling = False

    def reference_time(self, t: float) -> float:
        i = max(bisect.bisect_right(self.starts, t) - 1, 0)
        return self._clock[i] + max(t - self.starts[i] - self.takes[i], 0.0) * self._rate[i]

    def scaled(self, start: float, end: float) -> float:
        return self.reference_time(end) - self.reference_time(start)


_PROBE_KEYS = frozenset(range(0, 1 << 12, 3))


def interval(fn: Callable[[], object]) -> tuple[tuple[float, float], object]:
    """((start, end), result) of one call, on the raw clock."""
    start = time.perf_counter()
    result = fn()
    return (start, time.perf_counter()), result


@dataclass
class Block:
    intervals: list[tuple[float, float]]  # per op, raw clock
    failures: list[str]
    traced: bool


def run_block(ops: list[Op], tracer: Optional[tracing.Tracer]) -> Block:
    """Run the op list once."""
    block = Block([], [], tracer is not None)
    for op in ops:
        if tracer:
            tracer.op += 1
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            block.intervals.append((start, time.perf_counter()))
            block.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
            continue
        block.intervals.append((start, time.perf_counter()))
        try:
            msg = op.check(result)
        except Exception as exc:  # output the check cannot read is wrong output
            msg = f"unreadable output: {type(exc).__name__}: {exc}"
        if msg:
            block.failures.append(f"{op.name}: {msg}")
    return block


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run(prog, workload: str, seed: int, seconds: float, trace: bool,
        p: Optional[int] = None, import_s: float = 0.0) -> dict:
    """Set up, then run blocks of the fixed op list until ``seconds`` pass.

    Traced runs alternate an untraced and a traced block, starting
    untraced, so ``trace.overhead_frac`` compares blocks of one process.
    """
    p = SIZES[workload] if p is None else p
    tracer = tracing.Tracer(all_modules(prog)) if trace else None
    setups, blocks = [], []
    with Speedometer() as speed:
        for _ in range(SETUP_REPEATS):
            took, (ops, failures) = interval(
                lambda: (OP_LISTS[workload](prog, p, random.Random(seed)), golden_failures(prog)))
            setups.append(took)
        began = time.perf_counter()
        while True:
            traced = trace and len(blocks) % 2 == 1
            gc.collect()
            if traced:
                tracer.install()
            try:
                block = run_block(ops, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            blocks.append(block)
            failures += block.failures
            # stop at the block boundary nearest to ``seconds``
            took = block.intervals[-1][1] - block.intervals[0][0]
            untraced = sum(not b.traced for b in blocks)
            if (time.perf_counter() - began + took / 2 >= seconds and untraced >= 2
                    and (not trace or untraced < len(blocks))):
                break

    def latencies(kind: bool) -> list[list[float]]:
        return [[speed.scaled(*i) for i in b.intervals] for b in blocks if b.traced == kind]

    def wall(kind: bool) -> float:
        return statistics.median(sum(lat) for lat in latencies(kind))

    if trace:
        traced_ops = sum(len(b.intervals) for b in blocks if b.traced)
        metrics = tracer.summary(traced_ops, speed.scaled)
        metrics[tracing.OVERHEAD] = wall(True) / wall(False) - 1
        units = {name: tracing.unit_of(name) for name in metrics}
    else:
        # each op's latency is the median of its repeats, one per block
        per_op = [statistics.median(rep) for rep in zip(*latencies(False))]
        metrics = {
            "setup_s": import_s + statistics.median(speed.scaled(*i) for i in setups),
            "wall_s": wall(False),
            "op_ms_p50": 1e3 * statistics.median(per_op),
            "op_ms_p90": 1e3 * p90(per_op),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    return {
        "correct": not failures,
        "attempted": sum(len(b.intervals) for b in blocks),
        "failed": sum(len(b.failures) for b in blocks),
        "failures": failures,
        "blocks": len(blocks),
        "ops_per_block": len(ops),
        "block_walls_s": [sum(lat) for lat in latencies(False)],
        "raw_wall_s": statistics.median(
            sum(end - start for start, end in b.intervals) for b in blocks if not b.traced),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "tracer": tracer,
    }


def environment(workload: str, seed: int, seconds: float, trace: bool, load: float) -> dict:
    import numpy

    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(), "loadavg_1m": load,
        "threads": threads, "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(result: dict) -> None:
    """Human-readable lines; the caller prints the JSON line after them."""
    blocks, per = result["blocks"], result["ops_per_block"]
    print(f"blocks {blocks} x {per} ops; failed_frac {result['failed']}/{result['attempted']} "
          f"= {result['failed'] / result['attempted']:.4f} ratio (base: ops attempted)")
    print(f"untraced wall of the op list as measured, before scaling to probe speed: "
          f"{result['raw_wall_s']:.6g} s")
    print("untraced block walls at reference speed: "
          + " ".join(f"{w:.4g}" for w in result["block_walls_s"]) + " s")
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    for msg in result["failures"][:10]:
        print(f"FAILED {msg}")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    table = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        table[workload] = json.loads(lines[-1])
    print("== summary")
    for workload, result in table.items():
        row = "" if trace else "  ".join(
            f"{name} {m['value']:.4g} {m['unit']}" for name, m in result["metrics"].items())
        print(f"{workload:8s} failed {result['failed']}/{result['attempted']}  {row}")
    return status


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    trace = bool(args.trace)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, trace)
    load = os.getloadavg()[0]
    try:
        with Speedometer() as speed:
            took, prog = interval(load_program)
        import_s = speed.scaled(*took)
        env = environment(args.workload, args.seed, args.seconds, trace, load)
        result = run(prog, args.workload, args.seed, args.seconds, trace, import_s=import_s)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(env))
    report(result)
    if trace:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        result["tracer"].write(path, env)
        print(f"spans {len(result['tracer'].spans)} written to {path.relative_to(ROOT)}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
