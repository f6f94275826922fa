"""Enumeration report: counts by kind, local-equivalence class sizes, and
a seeded connector stress run, for a range of widths (up to 6).

Usage: python scripts/atlas_report.py [max_p] [seed]

max_p (default 4) is in 1..6 and seed (default 0) is an integer; any other
argument is refused with an error line and exit status 2 before any work.
"""

from __future__ import annotations

import pathlib
import random
import sys
import time
from typing import Sequence

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from qap.extension import ENUMERATION_MAX_P, class_sizes, count_kind, enumerate_all
from qap.partition import build_qap
from qap.transform import connect, random_sequence


def parse_args(argv: Sequence[str]) -> list[int]:
    """The arguments of main: at most two integers, max_p then seed; ValueError
    names the bad one."""
    if len(argv) > 2:
        raise ValueError(f"at most two arguments, max_p and seed, got {len(argv)}")
    values = []
    for name, text in zip(["max_p", "seed"], argv):
        try:
            values.append(int(text))
        except ValueError:
            raise ValueError(f"{name} must be an integer, got {text!r}") from None
    if values and not 1 <= values[0] <= ENUMERATION_MAX_P:
        raise ValueError(f"max_p must be in 1..{ENUMERATION_MAX_P}, got {values[0]}")
    return values


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
        sizes = sorted(n for n in class_sizes(p).tolist() if n)  # from the labels, no atlas
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
    try:
        args = parse_args(sys.argv[1:])
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main(*args))
