"""Enumeration report: counts by kind, local-equivalence class sizes, and
a seeded connector stress run, for a range of widths (up to 6).

Usage: python scripts/atlas_report.py [max_p] [seed]
"""

from __future__ import annotations

import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from qap.extension import class_sizes, count_kind, enumerate_all
from qap.partition import build_qap
from qap.transform import connect, random_sequence


def main(max_p: int = 4, seed: int = 0) -> int:
    """0 once every width is reported; 1, naming p and both lists, where a
    shell's size is not the closed-form count."""
    for p in range(1, max_p + 1):
        t0 = time.perf_counter()
        atlas = enumerate_all(p)
        dt = time.perf_counter() - t0
        by_kind = [len(atlas.by_kind[k]) for k in range(p + 1)]
        closed = [count_kind(p, k) for k in range(p + 1)]
        if by_kind != closed:
            print(f"p={p}: shells by kind {by_kind}, closed form {closed}", file=sys.stderr)
            return 1
        print(f"p={p}: total {atlas.total}  by kind {by_kind}  ({dt:.2f}s)")

        t0 = time.perf_counter()
        sizes = sorted(class_sizes(atlas).values())
        dt = time.perf_counter() - t0
        print(f"      {len(sizes)} local classes, sizes {sizes[0]}..{sizes[-1]}  ({dt:.2f}s)")

        if p <= 3:
            rng = random.Random(seed)
            cache = {}
            trials = 25
            t0 = time.perf_counter()
            for _ in range(trials):
                c = atlas.member(rng.choice(range(atlas.total)))
                if c not in cache:
                    cache[c] = build_qap(c)
                connect(random_sequence(cache[c], rng))
            dt = time.perf_counter() - t0
            print(f"      {trials}/{trials} random sequences connected ({dt:.2f}s)")
    return 0


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:3]]
    sys.exit(main(*args))
