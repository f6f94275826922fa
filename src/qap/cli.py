"""Command-line surface: enumeration, verification, table emission,
classification, sequence connection, and the matrix-oracle self-test.

Exit codes: 0 pass, 1 invariant failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from functools import lru_cache
from typing import Callable, Optional, Sequence

from . import extension, oracle, partition, transform
from .extension import enumerate_all
from .partition import build_qap, cell_label, qap_to_json, render_table, verify_closure
from .subalgebra import CartanSubalgebra, parse_label

PASS, FAIL, USAGE = 0, 1, 2

GUARDS = {
    "count": extension.ENUMERATION_MAX_P,
    "enumerate": extension.MEMBERS_MAX_P,
    "table": 6,
    "qap": 6,
    "coqa": 6,
    "lift": 6,
    "verify": 4,
    "oracle": oracle.ORACLE_GUARD_P,
    "classify": extension.CLASSES_MAX_P,
    "connect": 5,
}

# The bundled reference tables carry the source captions as aliases; the
# two k >= 2 captions list only the k self parities, which do not pin the
# mutual parities, so they cannot be parsed as canonical labels.
TABLE_ALIASES = {
    "C^{10}_{[001,100]}": "C^{110}_{[001,100]}",
    "C^{100}_{[001,010,100]}": "C^{101000}_{[001,010,100]}",
}


DEFAULT_P, DEFAULT_SEED, DEFAULT_N = 3, 0, 100


def _emit(cfg: argparse.Namespace, text: str) -> None:
    """Write the output to stdout or the --out file; a failed write or
    close, such as on a full disk, is a usage error."""
    text = text if text.endswith("\n") else text + "\n"
    try:
        if not cfg.out:
            sys.stdout.write(text)
            sys.stdout.flush()
            return
        with _open_out(cfg.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        if not cfg.out:
            _drop_stdout()
        where = f"--out {cfg.out}" if cfg.out else "stdout"
        raise SystemExit2(f"cannot write {where}: {exc.strerror or exc}") from None


def _drop_stdout() -> None:
    """Point the failed stdout's descriptor at the null device.  Its buffer
    keeps the unwritten text, and the interpreter's flush at exit would fail
    again and turn the exit status into 120."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # an in-process stream with no descriptor
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _open_out(path: str, mode: str):
    """The --out file opened in ``mode``; a path that cannot be opened is a
    usage error.  ``main`` opens it with "a" before any work, which appends
    nothing: an existing file keeps its text until the output replaces it."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise SystemExit2(f"cannot write --out {path}: {exc.strerror or exc}") from None


def _trials(cfg: argparse.Namespace) -> tuple[int, int]:
    """(--n, --seed) with their defaults filled in; --n must be at least 1."""
    n = DEFAULT_N if cfg.n is None else cfg.n
    if n < 1:
        raise SystemExit2(f"--n must be at least 1, got {n}")
    return n, DEFAULT_SEED if cfg.seed is None else cfg.seed


class SystemExit2(Exception):
    """Usage error carrying its message to stderr."""


def _resolve_label(text: str, p: Optional[int]) -> CartanSubalgebra:
    """The subalgebra a label names; a label that names none is a usage error."""
    try:
        return parse_label(TABLE_ALIASES.get(text.replace(" ", ""), text), p=p)
    except ValueError as exc:
        raise SystemExit2(str(exc)) from None


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed namespace once main has checked p
# against the command's guard.  It carries p and out, cartan (the
# subalgebra its label names) for a label command, fmt where it prints more
# than one form, and seed and n (None where not given) where it samples


def cmd_count(cfg: argparse.Namespace) -> int:
    atlas = enumerate_all(cfg.p)  # raises if enumeration != closed form
    enumerated = [len(atlas.by_kind[k]) for k in range(cfg.p + 1)]
    if cfg.fmt == "json":
        _emit(cfg, json.dumps({"p": cfg.p, "by_kind": enumerated, "total": atlas.total}))
    elif cfg.fmt == "csv":
        rows = ["kind,count"] + [f"{k},{n}" for k, n in enumerate(enumerated)]
        _emit(cfg, "\n".join(rows + [f"total,{atlas.total}"]))
    else:
        _emit(cfg, " ".join(str(n) for n in enumerated) + f" | total {atlas.total}")
    return PASS


def cmd_enumerate(cfg: argparse.Namespace) -> int:
    atlas = enumerate_all(cfg.p)
    _emit(cfg, extension.atlas_jsonl(atlas))
    return PASS


def cmd_qap(cfg: argparse.Namespace) -> int:
    q = build_qap(cfg.cartan)
    _emit(cfg, qap_to_json(q) if cfg.fmt == "json" else render_table(q))
    return PASS


def cmd_coqa(cfg: argparse.Namespace) -> int:
    cell = cfg.cell
    parts = re.fullmatch(r"B:([0-9]+)/eps:([01])", cell)
    if parts is None:
        raise SystemExit2(f"cannot parse cell {cell!r}; expected B:<i>/eps:<0|1>")
    key = (int(parts[1]), int(parts[2]))
    if key[0] >= 1 << cfg.p:
        raise SystemExit2(
            f"no cell {cell!r} at p={cfg.p}; expected 0 <= i < {1 << cfg.p}, eps 0 or 1"
        )
    if key[0] == 0:
        raise SystemExit2(f"cell {cell!r} is degrade; a co-quotient view needs B:<i> with i >= 1")
    view = partition.coquotient_view(build_qap(cfg.cartan), key)
    lines = [f"center {cell_label(view.center)}"]
    lines.append(
        f"degrade: {{{cell_label(view.degrade[0])}, {cell_label(view.degrade[1])}}}"
    )
    lines.append(
        f"irregular: {{{cell_label(view.irregular[0])}, {cell_label(view.irregular[1])}}}"
    )
    for a, b in view.regular:
        lines.append(f"regular: {{{cell_label(a)}, {cell_label(b)}}}")
    _emit(cfg, "\n".join(lines))
    return PASS


def cmd_verify(cfg: argparse.Namespace) -> int:
    n, seed = _trials(cfg)
    if cfg.p <= 3 and (cfg.n is not None or cfg.seed is not None):
        raise SystemExit2("verify checks every partition at p <= 3; --n and --seed apply from p = 4")
    atlas = enumerate_all(cfg.p)
    picks = range(atlas.total)
    if cfg.p > 3:
        picks = random.Random(seed).sample(picks, min(n, atlas.total))
    members = [atlas.member(i) for i in picks]
    checked = 0
    for c in members:
        report = verify_closure(build_qap(c, verify=False))
        if not report.ok:
            _emit(cfg, f"closure FAILED for {c.label}: {report.failures[0]}")
            return FAIL
        checked += report.checked_pairs
    _emit(
        cfg,
        f"verify pass: {len(members)} partitions at p={cfg.p}, "
        f"{checked} anti-commuting pairs checked",
    )
    return PASS


def cmd_oracle(cfg: argparse.Namespace) -> int:
    report = oracle.run_oracle(cfg.p)
    _emit(cfg, str(report))
    return PASS if report.ok else FAIL


def cmd_classify(cfg: argparse.Namespace) -> int:
    n, sizes = cfg.p * (cfg.p - 1) // 2, extension.class_sizes(cfg.p)
    want, classes, total = 1 << n, int((sizes != 0).sum()), int(sizes.sum())
    ok = classes == want and total == extension.count_total(cfg.p)
    # keys are n binary digits, no JSON escapes; a row of sizes shares its leading digits
    before, after, sep = ('"', '": ', ", ") if cfg.fmt == "json" else ("" if n else "-", ": ", "\n")
    lead = [before + format(i | 1 << n - n // 2, "b")[1:] for i in range(1 << n - n // 2)]
    tail = [format(i | 1 << n // 2, "b")[1:] + after for i in range(1 << n // 2)]
    body = sep.join([f"{a}{b}{s}" for a, row in zip(lead, sizes.reshape(len(lead), -1))
                     for b, s in zip(tail, row.tolist()) if s])
    _emit(cfg, f'{{"classes": {{{body}}}, "expected": {want}, "ok": {json.dumps(ok)}}}'
          if cfg.fmt == "json" else f"{body}\n{classes} classes (expected {want}), members {total}")
    return PASS if ok else FAIL


def cmd_connect(cfg: argparse.Namespace) -> int:
    n, seed = _trials(cfg)
    atlas = enumerate_all(cfg.p)
    rng = random.Random(seed)
    qap_cache: dict[CartanSubalgebra, partition.QAPartition] = {}
    done = 0
    for _ in range(n):
        c = atlas.member(rng.choice(range(atlas.total)))
        if c not in qap_cache:
            qap_cache[c] = build_qap(c)
        seq = transform.random_sequence(qap_cache[c], rng)
        try:
            transform.connect(seq)  # asserts the full contract
        except AssertionError as exc:
            _emit(cfg, f"connector FAILED after {done} sequences: {exc}")
            return FAIL
        done += 1
    _emit(cfg, f"{done}/{n} sequences connected at p={cfg.p} (seed {seed})")
    return PASS


def cmd_lift(cfg: argparse.Namespace) -> int:
    circuit, lifted = extension.local_lift(cfg.cartan)
    payload = {
        "source": cfg.cartan.label,
        "circuit": str(circuit),
        "factors": circuit.factor_strings(),
        "local": circuit.is_local,
        "lifted": lifted.label,
        "kind": lifted.kind,
    }
    if cfg.fmt == "json":
        _emit(cfg, json.dumps(payload))
    else:
        _emit(cfg, "\n".join(f"{k}: {v}" for k, v in payload.items()))
    return PASS


# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qap",
        description="Exact quotient-algebra-partition toolkit for su(2^p).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, run: Callable[[argparse.Namespace], int], help_text: str,
            label_arg: bool = False) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(run=run)
        if label_arg:
            sp.add_argument("label", help="Cartan label, e.g. C^{110}_{[001,100]}")
        sp.add_argument(
            "--p",
            type=int,
            default=None,
            help=f"word width (default {DEFAULT_P}); a label command checks it against the label",
        )
        sp.add_argument("--out", default=None)
        return sp

    # --format only where a command prints more than one form, --seed and
    # --n only where it samples; no other command accepts them
    def formats(sp: argparse.ArgumentParser, *choices: str) -> None:
        sp.add_argument("--format", dest="fmt", choices=choices, default="text")

    def sampling(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--seed", type=int, default=None,
                        help=f"seed of randomized audits (default {DEFAULT_SEED})")
        sp.add_argument("--n", type=int, default=None,
                        help=f"trial count for randomized audits (default {DEFAULT_N})")

    formats(add("count", cmd_count, "Cartan subalgebra counts by kind, enumeration vs closed form"),
            "text", "json", "csv")
    add("enumerate", cmd_enumerate, "export the full atlas as JSON lines")
    add("table", cmd_qap, "render the quotient-algebra table for a label",
        label_arg=True).set_defaults(fmt="text")  # `qap <label>` in text form
    formats(add("qap", cmd_qap, "dump the partition cells for a label", label_arg=True),
            "text", "json")
    coqa = add("coqa", cmd_coqa, "re-pair the partition around a conditioned subspace",
               label_arg=True)
    coqa.add_argument("--cell", required=True, help="center cell, e.g. B:1/eps:1")
    sampling(add("verify", cmd_verify, "closure verification across partitions"))
    add("oracle", cmd_oracle, "exact matrix-oracle self-test")
    formats(add("classify", cmd_classify, "local-equivalence classes of the atlas"), "text", "json")
    sampling(add("connect", cmd_connect, "randomized connector audits"))
    formats(add("lift", cmd_lift, "local lift of a label to the top kind", label_arg=True),
            "text", "json")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one `qap` command and return its exit code: 0 pass, 1 invariant
    failure, 2 usage error (argparse's own errors included; --help is 0).

    The parser, with each subcommand's handler bound by
    ``set_defaults(run=cmd_*)``, is built on the first call and reused by
    every later one; each call parses into a new namespace, so calls in one
    process are independent.  A test that changes what a command does
    patches the module globals its handler reads, not the ``cmd_*``
    functions themselves.
    """
    try:
        cfg = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse uses its own exit codes
        return USAGE if exc.code not in (0, None) else PASS
    probed = bool(cfg.out) and not os.path.lexists(cfg.out)
    try:
        if cfg.out:
            _open_out(cfg.out, "a").close()
        if "label" in cfg:  # a label command takes p from its label
            cfg.cartan = _resolve_label(cfg.label, cfg.p)
            cfg.p = cfg.cartan.p
        elif cfg.p is None:
            cfg.p = DEFAULT_P
        if not 1 <= cfg.p <= GUARDS[cfg.command]:
            raise SystemExit2(f"{cfg.command} is guarded to 1 <= p <= {GUARDS[cfg.command]}")
        return cfg.run(cfg)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except (AssertionError, ValueError) as exc:  # a ValueError here is a library fault
        print(f"invariant failure: {exc}", file=sys.stderr)
        return FAIL
    finally:  # a file the probe made is still empty only if nothing was written
        if probed and os.path.isfile(cfg.out) and not os.path.getsize(cfg.out):
            os.remove(cfg.out)


if __name__ == "__main__":
    sys.exit(main())
