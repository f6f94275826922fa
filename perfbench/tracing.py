"""Per-layer tracing of the qap package, applied from outside at run time.

Nothing under ``src/`` knows about it.  ``Tracer.install`` replaces each
named function or method with a wrapper and ``Tracer.uninstall`` puts the
originals back, so an untraced block runs the program exactly as shipped.

* A *spanned* target records one span per call: (id, parent id, op id,
  name, start, end).  Spans stay in memory until ``write`` is called.
* A *counted* target only bumps a counter; the constructors and the
  per-spinor conjugation fire millions of times, too often for a span.
* A few targets also tally a number read off their return value, such as
  the anti-commuting pairs a closure report says it checked.

``from .x import y`` binds ``y`` once per importing module, so a function
is replaced under every name any ``qap`` module binds it to.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from types import ModuleType
from typing import Callable, Iterable

# "<module>.<function>" or "<module>.<Class>.<method>" inside the qap package.
SPANNED = (
    "cli.main",
    "bitcore.gf2_nullspace",
    "bitcore.solve_affine",
    "spinor.to_matrix",
    "spinor.GaussianMatrix.__matmul__",
    "subalgebra.parse_label",
    "subalgebra.format_label",
    "subalgebra.phase_type_generator_keys",
    "subalgebra.MaxBiGroup.build",
    "partition.build_qap",
    "partition.verify_closure",
    "partition.render_table",
    "extension.enumerate_all",
    "extension.classify_local",
    "extension.atlas_jsonl",
    "transform.build_R",
    "transform.build_P",
    "transform.build_E",
    "transform.apply_circuit",
    "transform.connect",
    "oracle.check_products",
    "oracle.check_conjugations",
)

COUNTED = (
    "bitcore.BitWord.__post_init__",
    "spinor.Spinor.__post_init__",
    "subalgebra.CartanSubalgebra.__init__",
    "extension.local_lift",
    "transform.conjugate",
    "transform.h_matrix",
)

# target -> (tally name, number read off the target's return value)
TALLIES: dict[str, tuple[str, Callable[[object], int]]] = {
    "partition.verify_closure": ("partition.verify_closure.pairs", lambda r: r.checked_pairs),
    "extension.enumerate_all": ("extension.enumerate_all.members", lambda r: r.total),
    "oracle.check_products": ("oracle.checks", lambda r: r.checks),
    "oracle.check_conjugations": ("oracle.checks", lambda r: r.checks),
    "transform.build_R": ("transform.factors.R", len),
    "transform.build_P": ("transform.factors.P", len),
    "transform.build_E": ("transform.factors.E", len),
}

ENUMERATE = "extension.enumerate_all"
NULLSPACE = "bitcore.gf2_nullspace"
OVERHEAD = "trace.overhead_frac"


def metric_base(target: str) -> str:
    """Metric name of a target: dunder methods read as what they do."""
    for dunder, word in ((".__matmul__", ".matmul"), (".__post_init__", ".made"),
                         (".__init__", ".made")):
        if target.endswith(dunder):
            return target[: -len(dunder)] + word
    return target


def counted_name(target: str) -> str:
    base = metric_base(target)
    return base if base.endswith(".made") else base + ".calls"


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for target in SPANNED:
        names += [metric_base(target) + ".calls", metric_base(target) + ".self_s"]
    names += [counted_name(target) for target in COUNTED]
    names += dict.fromkeys(tally for tally, _ in TALLIES.values())
    names += ["partition.verify_closure.pairs_per_s", "extension.members_per_solve", OVERHEAD]
    return names


def unit_of(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_per_s"):
        return "1/s"
    if name in ("extension.members_per_solve", OVERHEAD):
        return "ratio"
    return "count"


class Rebinder:
    """Swaps objects inside the qap modules and restores them on demand."""

    def __init__(self, modules: Iterable[ModuleType]):
        self.modules = list(modules)
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, target: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``target`` by ``make(original)`` wherever it is bound."""
        module_name, *path = target.split(".")
        module = next(m for m in self.modules if m.__name__ == f"qap.{module_name}")
        if len(path) == 1:
            original = getattr(module, path[0])
            wrapper = make(original)
            for m in self.modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, attr, wrapper)
        else:
            cls = getattr(module, path[0])
            raw = cls.__dict__[path[1]]
            if isinstance(raw, classmethod):
                self._set(cls, path[1], classmethod(make(raw.__func__)))
            else:
                self._set(cls, path[1], make(raw))

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    """Spans and counters for one traced run; ``op`` tags every new span."""

    def __init__(self, modules: Iterable[ModuleType]):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: Counter[str] = Counter()
        self.tallies: Counter[str] = Counter()
        self.op = 0
        self._stack = [0]
        self._ids = itertools.count(1)
        self._rebinder = Rebinder(modules)

    def install(self) -> None:
        for target in SPANNED:
            self._rebinder.replace(target, functools.partial(self._spanned, target))
        for target in COUNTED:
            self._rebinder.replace(target, functools.partial(self._counted, target))

    def uninstall(self) -> None:
        self._rebinder.restore()

    def _spanned(self, name: str, fn: Callable) -> Callable:
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        tally = TALLIES.get(name)
        tallies = self.tallies

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.op, name, start, end))
            if tally is not None:
                tallies[tally[0]] += tally[1](result)
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self, ops: int, duration: Callable[[float, float], float]) -> dict[str, float]:
        """Per-layer metrics, each a total over the traced ops divided by
        their number, except the ratios.  Self time is a span's duration,
        as ``duration(start, end)`` gives it, minus the time its child
        spans cover."""
        spans = sorted(self.spans)  # parents first
        took = [duration(start, end) for _sid, _parent, _op, _name, start, end in spans]
        covered: defaultdict[int, float] = defaultdict(float)
        for (_sid, parent, *_rest), t in zip(spans, took):
            covered[parent] += t
        calls: Counter[str] = Counter()
        self_s: defaultdict[str, float] = defaultdict(float)
        in_enumeration: set[int] = set()
        solves_in_enumeration = 0
        for (sid, parent, _op, name, _start, _end), t in zip(spans, took):
            calls[name] += 1
            self_s[name] += t - covered[sid]
            if name == ENUMERATE or parent in in_enumeration:
                in_enumeration.add(sid)
                solves_in_enumeration += name == NULLSPACE
        out: dict[str, float] = {}
        for target in SPANNED:
            out[metric_base(target) + ".calls"] = calls[target] / ops
            out[metric_base(target) + ".self_s"] = self_s[target] / ops
        for target in COUNTED:
            out[counted_name(target)] = self.counts[target] / ops
        for tally, _ in TALLIES.values():
            out[tally] = self.tallies[tally] / ops
        verify_s = self_s["partition.verify_closure"]
        out["partition.verify_closure.pairs_per_s"] = (
            self.tallies["partition.verify_closure.pairs"] / verify_s if verify_s else 0.0
        )
        out["extension.members_per_solve"] = (
            self.tallies["extension.enumerate_all.members"] / solves_in_enumeration
            if solves_in_enumeration else 0.0
        )
        return out

    def write(self, path: Path, header: dict) -> None:
        """Spans as gzipped JSON lines after one header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({**header, "fields": ["id", "parent", "op", "name", "start", "end"]}))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
