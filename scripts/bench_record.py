"""Record a BENCH_<n>.json: the benchmark's medians and quartiles for a parent
checkout and for this one.

Usage:
    python scripts/bench_record.py --parent DIR --out BENCH_<n>.json

For every workload and each of the ten seeds, ``perfbench/run.py --trace 0``
runs once in each checkout at its default length, the side that goes first
alternating from seed to seed, so each workload gets ten pairs of runs.
Each end-to-end metric is summarised per side as median, q1 and q3 over
the seeds, with every run kept.  One ``--trace 1`` run of the first
workload per side adds its per-layer metrics.  DIR is a second checkout
of the commit compared against (``git clone`` plus ``git checkout``).

The change side must be a clean git tree, committed with nothing untracked
outside .gitignore, so that the commit it records is the code it measured.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = ("atlas", "closure", "connect", "oracle")
SEEDS = tuple(range(1, 11))


def run_once(checkout: pathlib.Path, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(env, result) of one benchmark process in the checkout."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed: {result['failures'][:3]}")
    return env, result


def dirty_files(checkout: pathlib.Path) -> list[str]:
    """`git status --porcelain` of the checkout; a failing git counts as dirty."""
    proc = subprocess.run(["git", "status", "--porcelain"], cwd=checkout, capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        return [f"git status exited {proc.returncode}: {proc.stderr.strip()}"]
    return proc.stdout.splitlines()


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", required=True, type=pathlib.Path)
    parser.add_argument("--out", required=True, type=pathlib.Path)
    args = parser.parse_args()
    dirty = dirty_files(ROOT)
    if dirty:
        raise SystemExit(f"{ROOT}: commit the change before recording it; the tree is dirty:\n"
                         + "\n".join(dirty[:20]))
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    runs = {side: {w: {} for w in WORKLOADS} for side in sides}
    envs, units = {}, {}
    for w in WORKLOADS:
        for i, seed in enumerate(SEEDS):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for side in order:
                env, result = run_once(sides[side], w, seed, trace=0)
                envs.setdefault(side, env)
                for name, metric in result["metrics"].items():
                    runs[side][w].setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
                print(f"{w} seed {seed} {side}: wall_s {result['metrics']['wall_s']['value']:.4g}",
                      file=sys.stderr)
    traced = {}
    for side, checkout in sides.items():
        _, result = run_once(checkout, WORKLOADS[0], SEEDS[0], trace=1)
        traced[side] = {name: m["value"] for name, m in result["metrics"].items()}
    env = {k: v for k, v in envs["change"].items() if k not in ("workload", "seed", "commit")}
    record = {
        "harness": "perfbench/run.py --trace 0, one process per run",
        "seconds": envs["change"].get("seconds"),
        "seeds": list(SEEDS),
        "env": env,
        "commits": {side: envs[side].get("commit", "unknown") for side in sides},
        "units": units,
        "end_to_end": {
            side: {w: {name: summary(vals) for name, vals in by_name.items()}
                   for w, by_name in by_workload.items()}
            for side, by_workload in runs.items()
        },
        "traced": {"workload": WORKLOADS[0], "seed": SEEDS[0], **traced},
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
