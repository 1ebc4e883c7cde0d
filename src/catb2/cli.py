"""Command-line harness: parameter sweeps over the identity checks.

`catb2 verify` runs selected checks over an (i, m) grid and prints one
report line per parameter cell, in an order that depends only on the
configuration (never on timing or the worker count).  The tasks come from
`checks.REGISTRY`.  `--jobs N` hands whole groups of them (one m each, or
one (m, i) cell when there are fewer m values than workers) to at most
min(N, CPUs, groups) processes, largest m first, where CPUs counts only
those the process may run on; the first line appears once the
smallest-m group is done.  `catb2 basis` prints the two basis
polynomials for one m together with the extracted constants.

Exit codes: 0 all checks passed, 1 at least one failed, 2 usage error,
3 the harness broke: a check raised (a RESULT=ERROR line; the sweep goes on),
a `--jobs` worker died (the report is incomplete) or stdout closed early.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import json
import os
import sys
import traceback
from dataclasses import dataclass
from typing import IO

from . import checks
from .checks import CHECK_NAMES, REGISTRY, CheckReport, Params
from .constructions import deformed_poly, saito_constant

# action is "run" or "skip"; skipped cells fail a check's precondition.
Task = tuple[str, str, Params]


class UsageError(ValueError):
    pass


class CellError(str):
    """The one-line message of a check that raised instead of reporting."""


@dataclass(frozen=True)
class SweepConfig:
    i_range: tuple[int, int]
    m_range: tuple[int, int]
    k_extra: int
    checks: tuple[str, ...]
    format: str
    jobs: int

    def __post_init__(self) -> None:
        for name, (lo, hi) in (("i", self.i_range), ("m", self.m_range)):
            if lo < 0 or hi < lo:
                raise UsageError(f"empty or negative --{name} range {lo}..{hi}")
        if self.k_extra < 0:
            raise UsageError("--k-extra must be nonnegative")
        if self.jobs < 1:
            raise UsageError("--jobs must be positive")
        if self.format not in ("text", "json"):
            raise UsageError(f"unknown format {self.format!r}")
        unknown = [c for c in self.checks if c not in CHECK_NAMES]
        if unknown:
            raise UsageError(f"unknown checks: {', '.join(unknown)}")
        if not self.checks:
            raise UsageError("no checks selected")


def parse_range(text: str) -> tuple[int, int]:
    """Parse 'LO..HI' (or a single 'N', meaning N..N) into a closed range."""
    lo, sep, hi = text.partition("..")
    try:
        return (int(lo), int(hi)) if sep else (int(lo), int(lo))
    except ValueError:
        raise UsageError(f"bad range {text!r}, expected LO..HI") from None


def parse_checks(text: str) -> tuple[str, ...]:
    if text.strip() == "all":
        return CHECK_NAMES
    requested = {part.strip() for part in text.split(",") if part.strip()}
    unknown = requested - set(CHECK_NAMES)
    if unknown:
        raise UsageError(f"unknown checks: {', '.join(sorted(unknown))}")
    return tuple(name for name in CHECK_NAMES if name in requested)


def build_tasks(cfg: SweepConfig) -> list[Task]:
    """The full deterministic task list for a sweep, in report order."""
    tasks: list[Task] = []
    for name in cfg.checks:
        check = REGISTRY[name]
        for i in range(cfg.i_range[0], cfg.i_range[1] + 1):
            for m in range(cfg.m_range[0], cfg.m_range[1] + 1):
                if check.applies(i, m):
                    tasks += [("run", name, p) for p in check.params(i, m, cfg.k_extra)]
                else:
                    tasks.append(("skip", name, (("i", i), ("m", m))))
    # A check whose parameters ignore i (saito) repeats its tasks: keep the first.
    return list(dict.fromkeys(tasks))


def execute_task(task: Task) -> CheckReport | CellError | None:
    """Run one task; None signals a skipped cell, CellError a check that
    raised.  Top level for pickling."""
    action, name, params = task
    if action == "skip":
        return None
    try:
        return getattr(checks, "check_" + name.replace("-", "_"))(**dict(params))
    except Exception as exc:  # reported on one line; the sweep goes on
        print(f"catb2: CHECK={name}", *(f"{k}={v}" for k, v in params), "raised:", file=sys.stderr)
        traceback.print_exc()
        return CellError(" ".join(f"{type(exc).__name__}: {exc}".split()))


def _result(report: CheckReport | CellError | None) -> str:
    if isinstance(report, CellError):
        return "ERROR"
    return "SKIP" if report is None else ("PASS" if report.passed else "FAIL")


def _format_line(task: Task, report: CheckReport | CellError | None, fmt: str) -> str:
    _, name, params = task
    fields = {"result": _result(report)}
    if isinstance(report, CheckReport) and report.witness is not None:
        fields["witness"] = report.witness
    if isinstance(report, CellError):
        fields["error"] = str(report)
    if fmt == "text":
        parts = [f"CHECK={name}"] + [f"{key}={value}" for key, value in params]
        parts += [f"{key.upper()}={value}" for key, value in fields.items()]
        return " ".join(parts)
    record: dict = {"check": name, "params": dict(params), **fields}
    if isinstance(report, CheckReport) and report.data:
        record.update(report.data)
    return json.dumps(record)


def _task_groups(tasks: list[Task], workers: int) -> list[list[int]]:
    """The indices of `tasks` in the groups a pool of `workers` runs whole:
    every task of one m, so that one worker builds its constructions, or of
    one (m, i) cell when there are fewer m values than workers.  lemma2's
    (a, b) is (i, m); saito's task was kept for the first i and joins that
    cell.  Largest m first (longest-processing-time-first), report order
    inside a group."""
    cells = [(p.get("m", p.get("b")), p.get("i", p.get("a"))) for p in (dict(t[2]) for t in tasks)]
    first_i = min((i for _, i in cells if i is not None), default=0)
    per_cell = len({m for m, _ in cells}) < workers
    groups: dict = {}
    for index, (m, i) in enumerate(cells):
        key = (m, first_i if i is None else i) if per_cell else m
        groups.setdefault(key, []).append(index)
    return [groups[key] for key in sorted(groups, reverse=True)]


def _execute_group(group: list[Task]) -> list[CheckReport | CellError | None]:
    """Run a group of tasks in one worker.  Top level for pickling."""
    return [execute_task(task) for task in group]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_verify(cfg: SweepConfig, out: IO[str] | None = None) -> int:
    out = out if out is not None else sys.stdout
    tasks = build_tasks(cfg)
    counts = {"PASS": 0, "FAIL": 0, "SKIP": 0, "ERROR": 0}
    # The pool forks all its workers at once, so never more than can work.
    workers = min(cfg.jobs, _usable_cpus())
    groups = _task_groups(tasks, workers) if workers > 1 else []
    with contextlib.ExitStack() as stack:
        if len(groups) <= 1:
            results = map(execute_task, tasks)
        else:
            pool = stack.enter_context(
                concurrent.futures.ProcessPoolExecutor(max_workers=min(workers, len(groups)))
            )
            # Runs first on exit: an early exit drops the queued groups
            # instead of waiting for all of them.
            stack.callback(pool.shutdown, cancel_futures=True)
            slots = {}  # task index -> (its group's future, position in the group)
            for group in groups:
                future = pool.submit(_execute_group, [tasks[index] for index in group])
                slots.update((index, (future, pos)) for pos, index in enumerate(group))
            results = (future.result()[pos] for _, (future, pos) in sorted(slots.items()))
        for task, report in zip(tasks, results):
            counts[_result(report)] += 1
            print(_format_line(task, report, cfg.format), file=out)
    raised = f", {counts['ERROR']} raised" if counts["ERROR"] else ""
    print(
        f"catb2: {counts['PASS']} passed, {counts['FAIL']} failed, "
        f"{counts['SKIP']} skipped{raised}",
        file=sys.stderr,
    )
    return 3 if counts["ERROR"] else 1 if counts["FAIL"] else 0


def run_basis(m: int, fmt: str, out: IO[str] | None = None) -> int:
    out = out if out is not None else sys.stdout
    if m < 0:
        raise UsageError("--m must be nonnegative")
    fields = {
        "f0": deformed_poly(0, m).to_text(),
        "f1": deformed_poly(1, m).to_text(),
        "C": str(saito_constant(m)),
    }
    for i in (0, 1):
        report = checks.check_prop3(i, m)
        if not report.passed:
            print(f"catb2: constant extraction failed: {report.witness}", file=sys.stderr)
            return 1
        assert report.data is not None
        fields[f"A{i}"] = report.data["A"]
        fields[f"B{i}"] = report.data["B"]
    ordered = {k: fields[k] for k in ("f0", "f1", "C", "A0", "A1", "B0", "B1")}
    if fmt == "json":
        print(json.dumps(ordered), file=out)
    else:
        for key, value in ordered.items():
            print(f"{key}={value}", file=out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="catb2",
        description="Exact verification of the Cat(B2, m) derivation basis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="sweep identity checks over a parameter grid")
    pv.add_argument("--i", default="0..4", metavar="LO..HI", help="i range (default 0..4)")
    pv.add_argument("--m", default="0..4", metavar="LO..HI", help="m range (default 0..4)")
    pv.add_argument(
        "--k-extra",
        dest="k_extra",
        type=int,
        default=2,
        metavar="N",
        help="evaluate prop2/lemma3 for k up to m+N (default 2)",
    )
    pv.add_argument("--checks", default="all", metavar="LIST|all", help="comma-separated check names")
    pv.add_argument("--format", choices=("text", "json"), default="text")
    pv.add_argument(
        "--jobs", type=int, default=1, metavar="N", help="worker processes, at most one per task group and per CPU in the affinity mask"
    )

    pb = sub.add_parser("basis", help="print the basis polynomials and constants")
    pb.add_argument("--m", type=int, required=True)
    pb.add_argument("--format", choices=("text", "json"), default="text")

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            cfg = SweepConfig(
                i_range=parse_range(args.i),
                m_range=parse_range(args.m),
                k_extra=args.k_extra,
                checks=parse_checks(args.checks),
                format=args.format,
                jobs=args.jobs,
            )
            code = run_verify(cfg)
        else:
            code = run_basis(args.m, args.format)
        sys.stdout.flush()  # a closed pipe must surface here, not at exit
        return code
    except UsageError as exc:
        print(f"catb2: error: {exc}", file=sys.stderr)
        return 2
    except concurrent.futures.BrokenExecutor:  # a worker was killed or exited
        print("catb2: error: a worker process died; the report is incomplete", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader went away (e.g. `catb2 verify | head -1`).  Point stdout
        # at devnull so the interpreter's final flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 3


if __name__ == "__main__":
    sys.exit(main())
