"""Command-line harness: parameter sweeps over the identity checks.

`catb2 verify` runs selected checks over an (i, m) grid and prints one
report line per parameter cell, in an order that depends only on the
configuration (never on timing or the worker count).  The tasks come from
`checks.REGISTRY`.  `--jobs N` hands whole groups of them (the tasks of one m
of the grid, or of one (m, i) cell when there are fewer m values than workers)
to at most min(N, CPUs, groups) forked processes, largest m first, where CPUs
counts only those the process may run on; the first line appears once the
smallest-m group is done.  Each worker is pinned to its own CPU of the affinity
mask, so that two never share one (without an affinity call, none is pinned);
without `os.fork` the sweep runs in this process.  `catb2 basis` prints the two
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
    """Run one task: the fields of its report line and the constants only a JSON record carries."""
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


def _cpus() -> list[int | None]:
    """The CPUs this process may run on, one per pool worker it can use: its
    sorted affinity mask, or None for every CPU of the host on a platform
    without an affinity call (whose workers are not pinned)."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return [None] * (os.cpu_count() or 1)


def _pool_results(stack: contextlib.ExitStack, tasks: Iterable[Task], groups: list[list[Task]],
                  cpus: list[int | None]) -> Iterator[tuple[Fields, Fields | None]]:
    """The outcome of each task in order, from one process forked per entry of `cpus` and
    pinned to it, which gets one group at a time and returns its results as one length-prefixed
    `marshal` frame.  One that dies holding a group raises WorkerDied; `stack` reaps them all."""
    import marshal, select, signal

    todo, done, pids, poller = iter(range(len(groups))), {}, [], select.poll()
    commands, frames = {}, {}  # by result pipe: the command pipe while it holds a group, its frame

    def stop(error, *_):
        for pid in pids if error else ():
            os.kill(pid, signal.SIGTERM)
        for fd in [*frames, *commands.values()]:
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)

    def hand_out(fd):  # the next group, largest m first; when none is left, the end of the pipe
        if (k := next(todo, None)) is None:
            poller.unregister(fd)
            os.close(commands.pop(fd))
        else:  # a process that died meanwhile is found by its result pipe
            with contextlib.suppress(BrokenPipeError):
                os.write(commands[fd], k.to_bytes(4, "little"))

    stack.push(stop)
    for cpu in cpus:
        (command_r, command_w), (result_r, result_w) = os.pipe(), os.pipe()
        commands[result_r], frames[result_r] = command_w, bytearray()
        if (pid := os.fork()) == 0:  # never returns; dies silently on Ctrl-C (the parent reports it)
            try:
                signal.signal(signal.SIGINT, signal.SIG_DFL)
                for fd in [*frames, *commands.values()]:  # the parent's ends
                    os.close(fd)
                if cpu is not None:  # a CPU it may not pin to leaves it unpinned
                    with contextlib.suppress(OSError):
                        os.sched_setaffinity(0, {cpu})
                while index := os.read(command_r, 4):
                    k = int.from_bytes(index, "little")
                    frame = marshal.dumps((k, [execute_task(task) for task in groups[k]]))
                    view = memoryview(len(frame).to_bytes(8, "little") + frame)
                    while view:
                        view = view[os.write(result_w, view):]
                os._exit(0)
            finally:
                os._exit(1)
        pids.append(pid)
        os.close(command_r)
        os.close(result_w)
        poller.register(result_r, select.POLLIN)
        hand_out(result_r)
    for task in tasks:
        while task not in done:
            for fd, _ in poller.poll():
                chunk, frame = os.read(fd, 1 << 16), frames[fd]
                if not chunk:  # it ended, before or in the middle of its frame
                    raise WorkerDied
                frame += chunk
                if len(frame) - 8 == int.from_bytes(frame[:8], "little"):
                    k, results = marshal.loads(frame[8:])
                    done.update(zip(groups[k], results))
                    frame.clear()
                    hand_out(fd)
        yield done[task]


def run_verify(cfg: SweepConfig, out: IO[str] | None = None) -> int:
    out = out if out is not None else sys.stdout
    tasks = build_tasks(cfg)
    counts = {"PASS": 0, "FAIL": 0, "SKIP": 0, "ERROR": 0}
    # The pool forks all its workers at once, so never more than can work.
    cpus = _cpus()[: cfg.jobs]
    groups = _task_groups(tasks, len(cpus)) if len(cpus) > 1 and hasattr(os, "fork") else []
    with contextlib.ExitStack() as stack:
        results = (_pool_results(stack, tasks, groups, cpus[: len(groups)]) if len(groups) > 1
                   else map(execute_task, tasks))
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
    except KeyboardInterrupt:  # run_verify's ExitStack has ended the pool
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
