"""Command-line harness: parameter sweeps over the identity checks.

`catb2 verify` runs selected checks over an (i, m) grid and prints one
report line per parameter cell, in an order that depends only on the
configuration (never on timing or the worker count).  The tasks come from
`checks.REGISTRY`.  `--jobs N` hands whole groups of them (the tasks of one m
of the grid, or of one (m, i) cell when there are fewer m values than workers)
to at most min(N, CPUs, groups) processes, largest m first, where CPUs counts
only those the process may run on; the first line appears once the
smallest-m group is done.  Each worker is pinned to its own CPU of the
affinity mask, so that two of them never share one; on a platform without
an affinity call the workers are not pinned.  `catb2 basis` prints the two
basis polynomials for one m with the constants C of saito and A, B of prop3.

Exit codes: 0 all checks passed, 1 at least one failed, 2 usage error,
3 the harness broke: a check raised (a RESULT=ERROR line; the sweep goes on),
a `--jobs` worker died (the report is incomplete) or the report could not
be written, 130 interrupted (SIGINT; the report is incomplete).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import IO, Iterable, Iterator, NamedTuple

from . import checks
from .checks import CHECK_NAMES, REGISTRY, Params
from .constructions import deformed_poly, saito_constant

# action is "run", or "skip" for a cell whose function returns no parameters;
# `build_tasks` maps each task to the (m, i) grid cell that produced it.
Task = tuple[str, str, Params]
Fields = dict[str, str]


class UsageError(ValueError):
    pass


class WorkerDied(RuntimeError):
    """A `--jobs` worker was killed or exited; the report is incomplete."""


class _SweepFields(NamedTuple):
    i_range: tuple[int, int]
    m_range: tuple[int, int]
    k_extra: int
    checks: tuple[str, ...]
    format: str
    jobs: int


class SweepConfig(_SweepFields):
    """A validated sweep configuration: an immutable record, copied with
    `_replace`, whose every construction (a copy's too) raises UsageError on
    a value the CLI would reject."""

    __slots__ = ()
    # `_replace` builds its copy through `_make`; route it through __new__.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, i_range, m_range, k_extra, checks, format, jobs):
        for name, (lo, hi) in (("i", i_range), ("m", m_range)):
            if lo < 0 or hi < lo:
                raise UsageError(f"empty or negative --{name} range {lo}..{hi}")
        if k_extra < 0:
            raise UsageError("--k-extra must be nonnegative")
        if jobs < 1:
            raise UsageError("--jobs must be positive")
        if format not in ("text", "json"):
            raise UsageError(f"unknown format {format!r}")
        unknown = [c for c in checks if c not in CHECK_NAMES]
        if unknown:
            raise UsageError(f"unknown checks: {', '.join(unknown)}")
        if not checks:
            raise UsageError("no checks selected")
        return super().__new__(cls, i_range, m_range, k_extra, checks, format, jobs)


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


def build_tasks(cfg: SweepConfig) -> dict[Task, tuple[int, int]]:
    """Every task of a sweep in report order, mapped to the first (m, i) cell
    that produced it (saito ignores i, so the first i keeps its tasks)."""
    tasks: dict[Task, tuple[int, int]] = {}
    for name in cfg.checks:
        for i in range(cfg.i_range[0], cfg.i_range[1] + 1):
            for m in range(cfg.m_range[0], cfg.m_range[1] + 1):
                runs = [("run", name, p) for p in REGISTRY[name](i, m, cfg.k_extra)]
                for task in runs or [("skip", name, (("i", i), ("m", m)))]:
                    tasks.setdefault(task, (m, i))
    return tasks


def execute_task(task: Task) -> tuple[Fields, Fields | None]:
    """Run one task: the fields of its report line and the constants that
    only a JSON record carries.  Top level for pickling."""
    action, name, params = task
    if action == "skip":
        return {"result": "SKIP"}, None
    try:
        report = getattr(checks, "check_" + name.replace("-", "_"))(**dict(params))
    except Exception as exc:  # reported on one line; the sweep goes on
        import traceback  # only a raising check needs it

        print(f"catb2: CHECK={name}", *(f"{k}={v}" for k, v in params), "raised:", file=sys.stderr)
        traceback.print_exc()
        return {"result": "ERROR", "error": " ".join(f"{type(exc).__name__}: {exc}".split())}, None
    fields = {"result": "PASS"} if report.passed else {"result": "FAIL", "witness": report.witness}
    return fields, report.data


def _format_line(task: Task, fields: Fields, data: Fields | None, fmt: str) -> str:
    _, name, params = task
    if fmt == "text":
        parts = [f"CHECK={name}"] + [f"{key}={value}" for key, value in params]
        parts += [f"{key.upper()}={value}" for key, value in fields.items()]
        return " ".join(parts)
    import json  # only --format json needs it

    return json.dumps({"check": name, "params": dict(params), **fields, **(data or {})})


def _task_groups(tasks: dict[Task, tuple[int, int]], workers: int) -> list[list[Task]]:
    """The groups of `tasks` a pool of `workers` runs whole: every task one m
    of the grid produced, so that one worker builds its constructions, or one
    (m, i) cell when there are fewer m values than workers.  Largest m first
    (longest-processing-time-first, Graham 1969), report order inside a group."""
    per_cell = len({m for m, _ in tasks.values()}) < workers
    groups: dict = {}
    for task, (m, i) in tasks.items():
        groups.setdefault((m, i) if per_cell else m, []).append(task)
    return [groups[key] for key in sorted(groups, reverse=True)]


def _execute_group(group: list[Task]) -> list[tuple[Fields, Fields | None]]:
    """Run a group of tasks in one worker.  Top level for pickling."""
    return [execute_task(task) for task in group]


def _cpus() -> list[int | None]:
    """The CPUs this process may run on, one per pool worker it can use: its
    sorted affinity mask, or None for every CPU of the host on a platform
    without an affinity call (whose workers are not pinned)."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return [None] * (os.cpu_count() or 1)


def _start_worker(cpus) -> None:
    """Pool initializer: the worker dies silently on Ctrl-C (the parent
    reports the interrupt) and runs on the CPU it takes from `cpus`.  A CPU
    it may not pin to leaves it unpinned rather than breaking the pool."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_DFL)
    cpu = cpus.get()
    if cpu is not None:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, {cpu})


def _pool_results(stack: contextlib.ExitStack, tasks: Iterable[Task], groups: list[list[Task]],
                  cpus: list[int | None]) -> Iterator[tuple[Fields, Fields | None]]:
    """The outcome of each task in order, from a pool of one process per entry
    of `cpus`, pinned to it, that runs one group per submission and that
    `stack` shuts down.  Only this path loads the pool's modules; a dead
    worker raises WorkerDied."""
    import concurrent.futures, multiprocessing

    others = set(multiprocessing.active_children())
    # One CPU per worker; every worker takes one as it starts, so none waits.
    handout = multiprocessing.SimpleQueue()
    stack.callback(handout.close)
    for cpu in cpus:
        handout.put(cpu)
    pool = stack.enter_context(concurrent.futures.ProcessPoolExecutor(
        len(cpus), initializer=_start_worker, initargs=(handout,)))
    # Runs first on exit: an early exit drops the queued groups instead of
    # waiting for them, and an exit by exception ends the running ones too.
    def stop(error, *_):
        for worker in set(multiprocessing.active_children()) - others if error else ():
            worker.terminate()
        pool.shutdown(cancel_futures=True)

    stack.push(stop)
    try:
        slots = {}  # task -> (its group's future, position in the group)
        for group in groups:
            future = pool.submit(_execute_group, group)
            slots.update((task, (future, pos)) for pos, task in enumerate(group))
        for task in tasks:
            future, pos = slots[task]
            yield future.result()[pos]
    except concurrent.futures.BrokenExecutor as exc:  # a worker was killed or exited
        raise WorkerDied from exc


def run_verify(cfg: SweepConfig, out: IO[str] | None = None) -> int:
    out = out if out is not None else sys.stdout
    tasks = build_tasks(cfg)
    counts = {"PASS": 0, "FAIL": 0, "SKIP": 0, "ERROR": 0}
    # The pool forks all its workers at once, so never more than can work.
    cpus = _cpus()[: cfg.jobs]
    groups = _task_groups(tasks, len(cpus)) if len(cpus) > 1 else []
    with contextlib.ExitStack() as stack:
        if len(groups) <= 1:
            results = map(execute_task, tasks)
        else:
            results = _pool_results(stack, tasks, groups, cpus[: len(groups)])
        for task, (fields, data) in zip(tasks, results):
            counts[fields["result"]] += 1
            # One write per line: on an unbuffered stream, print's second
            # write (of "\n") is a system call of its own.
            out.write(_format_line(task, fields, data, cfg.format) + "\n")
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
            print(f"catb2: prop3 failed at i={i}: {report.witness}", file=sys.stderr)
            return 1
        assert report.data is not None
        fields[f"A{i}"] = report.data["A"]
        fields[f"B{i}"] = report.data["B"]
    ordered = {k: fields[k] for k in ("f0", "f1", "C", "A0", "A1", "B0", "B1")}
    if fmt == "json":
        import json

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
    pb.add_argument("--m", type=int, required=True, help="one m, not a LO..HI range as in verify")
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
    except WorkerDied:
        print("catb2: error: a worker process died; the report is incomplete", file=sys.stderr)
        return 3
    except KeyboardInterrupt:  # run_verify's ExitStack has cancelled the queued groups
        print("catb2: interrupted; the report is incomplete", file=sys.stderr)
        return 130
    except OSError as exc:
        # The report could not be written: the device is full, or the reader
        # went away (`catb2 verify | head -1`, which needs no message).  Point
        # stdout at devnull so the interpreter's final flush cannot fail again.
        if not isinstance(exc, BrokenPipeError):
            print(f"catb2: error: {exc}; the report is incomplete", file=sys.stderr)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 3
