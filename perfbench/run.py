#!/usr/bin/env python3
"""Benchmark of the `catb2 verify` sweep, end to end and layer by layer.

    python3 perfbench/run.py --workload sweep-default --seed 0 --seconds 30 --trace 0

Run from the root of a catb2 checkout; the program is taken from `src/`
as it stands (pure Python, nothing to build).  With `--trace 0` the run
repeats one cold `python -m catb2 verify ...` process per sample until
`--seconds` is used up and reports the end-to-end metrics as medians, with
every time scaled to the host's nominal speed (see `speedometer.py`).
With `--trace 1` it runs the sweep once in process with every public
function of the five modules wrapped (see `tracing.py`) and reports the
per-layer metrics.  Every sweep's report stream is checked line by line
against the expected PASS/SKIP lines and against the recorded digest.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A fuller record with provenance and every sample is written to
`perfbench/out/`.  See `perfbench/README.md` for workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import speedometer
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


@dataclass(frozen=True)
class Workload:
    i: str
    m: str
    checks: tuple[str, ...]
    k_extra: int
    jobs: int
    # sha256 of the text report stream; it does not depend on the seed.
    digest: str

    def argv(self, seed: int) -> list[str]:
        """CLI arguments; the seed only permutes the --checks list, which the
        program must canonicalize, so every seed does the same work."""
        order = list(self.checks)
        random.Random(seed).shuffle(order)
        return [
            "--i", self.i, "--m", self.m, "--k-extra", str(self.k_extra),
            "--checks", ",".join(order), "--jobs", str(self.jobs),
        ]  # fmt: skip


WORKLOADS = {
    "sweep-default": Workload(
        "0..4", "0..4", tracing.CHECKS, 2, 1,
        "d93e435150b04dd1826c449ecb4ed812929c5723a1dd7316fdf8c7073e301b3d",
    ),
    "high-m": Workload(
        "0..2", "5..8", tracing.CHECKS, 2, 1,
        "74a369936d26fc64f106402fb7bfb96e8593895909881c78d3784bdb10006244",
    ),
    "halfint-k": Workload(
        "0..4", "0..4", ("prop2", "lemma3"), 6, 1,
        "b451ff5365b6f006dafddbda142f00835b3f6880dfd8538bddb6dc2e46a231f4",
    ),
    "sweep-jobs2": Workload(
        "0..4", "0..4", tracing.CHECKS, 2, 2,
        "d93e435150b04dd1826c449ecb4ed812929c5723a1dd7316fdf8c7073e301b3d",
    ),
    # A few cells only; used by the benchmark's own tests.
    "tiny": Workload(
        "0..1", "0..1", tracing.CHECKS, 1, 1,
        "95d476f8edc0cd03d4b50cb655d4ba88f7e4a234f36204a138a5044575e89a4c",
    ),
}  # fmt: skip

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cells_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "cells_ok_frac": "ratio",
}
SETUP_PER_SAMPLE = 3
MIN_SETUP_SAMPLES = 15


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _import_catb2():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import catb2
    import catb2.cli

    return catb2


# ------------------------------------------------------------------ checking


def sweep_config(workload: Workload, seed: int, jobs: int):
    """The `SweepConfig` the CLI builds from `workload.argv(seed)`."""
    cli = _import_catb2().cli
    argv = workload.argv(seed)
    opts = dict(zip(argv[::2], argv[1::2]))
    return cli.SweepConfig(
        i_range=cli.parse_range(opts["--i"]),
        m_range=cli.parse_range(opts["--m"]),
        k_extra=int(opts["--k-extra"]),
        checks=cli.parse_checks(opts["--checks"]),
        format="text",
        jobs=jobs,
    )


def expected_lines(workload: Workload) -> list[str]:
    """The report a correct program prints: every run cell PASS, every
    precondition-excluded cell SKIP, in `build_tasks` order."""
    cli = _import_catb2().cli
    lines = []
    for action, name, params in cli.build_tasks(sweep_config(workload, 0, workload.jobs)):
        fields = [f"CHECK={name}", *(f"{key}={value}" for key, value in params)]
        fields.append("RESULT=SKIP" if action == "skip" else "RESULT=PASS")
        lines.append(" ".join(fields))
    return lines


def failed_cells(stdout: bytes, returncode: int, workload: Workload, expected: list[str]) -> int:
    """Cells whose line is missing, extra or not the expected PASS/SKIP.

    A stream whose digest differs from the recorded one, or a nonzero exit,
    fails every cell if no single line can be blamed.
    """
    got = stdout.decode("utf-8", "replace").splitlines()
    bad = sum(1 for a, b in zip(got, expected) if a != b) + abs(len(got) - len(expected))
    if bad == 0 and (returncode != 0 or hashlib.sha256(stdout).hexdigest() != workload.digest):
        bad = len(expected)
    return bad


# ----------------------------------------------------------------- measuring


def time_import() -> tuple[float, float]:
    """Start and end (`time.monotonic()`) of a fresh interpreter importing
    catb2.cli."""
    start = time.monotonic()
    subprocess.run(
        [sys.executable, "-c", "import catb2.cli"], env=_child_env(), cwd=ROOT, check=True
    )
    return start, time.monotonic()


def run_sweep(argv: list[str]) -> dict:
    """One cold `python -m catb2 verify` process, timed until it exits.

    CPU time and peak RSS come from wait4's rusage, which includes the
    pool workers the process started and reaped.
    """
    OUT.mkdir(exist_ok=True)
    # stderr goes to a file so that a long traceback cannot fill a pipe
    # while stdout is being drained.
    with open(OUT / "sweep.stderr", "w+b") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-m", "catb2", "verify", *argv],
            stdout=subprocess.PIPE,
            stderr=err,
            env=_child_env(),
            cwd=ROOT,
        )
        with proc.stdout:
            stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return {
        "start": start,
        "end": end,
        "wall_s": end - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "returncode": proc.returncode,
        "stdout": stdout,
        "stderr": stderr[-2000:],
    }


def _metrics(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def sample_cpus(jobs: int) -> set[int]:
    """The CPUs a sweep of `jobs` processes is pinned to: the first `jobs`
    this process may use."""
    return set(sorted(os.sched_getaffinity(0))[:jobs])


def measure(workload: Workload, seed: int, seconds: float, expected: list[str]) -> dict:
    """Untraced run: sweep samples (with import samples between them) until
    a further sweep would overrun; the rest of the time goes to import
    samples.

    Every sample is pinned to `sample_cpus` with a probe on each of those
    CPUs, and its times are multiplied by the speed the probes saw during
    it; the raw medians are kept in the record.
    """
    argv = workload.argv(seed)
    cpus = sample_cpus(workload.jobs)
    os.sched_setaffinity(0, cpus)  # inherited by every sample process
    time_import()  # warms the file cache (and bytecode cache, if written); not a sample
    imports, sweeps = [], []
    with speedometer.Probes(cpus) as probes:
        start = time.monotonic()
        while True:
            imports += [time_import() for _ in range(SETUP_PER_SAMPLE)]
            sample = run_sweep(argv)
            stdout = sample.pop("stdout")
            sample["failed"] = failed_cells(stdout, sample["returncode"], workload, expected)
            sample["cells"] = len(expected)
            sweeps.append(sample)
            elapsed = time.monotonic() - start
            typical = statistics.median(s["wall_s"] for s in sweeps)
            if elapsed + typical > seconds:
                break
        while len(imports) < MIN_SETUP_SAMPLES or time.monotonic() - start < seconds:
            imports.append(time_import())
    raw_setup = [end - begin for begin, end in imports]
    setup = [(end - begin) * probes.speed(begin, end) for begin, end in imports]
    for sample in sweeps:
        sample["speed"] = probes.speed(sample["start"], sample["end"])
        sample["raw_wall_s"], sample["raw_cpu_s"] = sample["wall_s"], sample["cpu_s"]
        sample["wall_s"] *= sample["speed"]
        sample["cpu_s"] *= sample["speed"]
    attempted = sum(s["cells"] for s in sweeps)
    failed = sum(s["failed"] for s in sweeps)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(s["wall_s"] for s in sweeps),
        "cells_per_s": statistics.median(s["cells"] / s["wall_s"] for s in sweeps),
        "cpu_s": statistics.median(s["cpu_s"] for s in sweeps),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sweeps),
        "cells_ok_frac": (attempted - failed) / attempted,
    }
    raw = {
        "setup_s": statistics.median(raw_setup),
        "wall_s": statistics.median(s["raw_wall_s"] for s in sweeps),
        "cpu_s": statistics.median(s["raw_cpu_s"] for s in sweeps),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": _metrics(values, END_TO_END),
        "raw_medians": raw,
        "sample_counts": {"setup_s": len(setup), "sweeps": len(sweeps)},
        "samples": {"cpus": sorted(cpus), "setup_s": setup, "raw_setup_s": raw_setup, "sweeps": sweeps},
        "probe_readings": len(probes.readings),
    }


# ------------------------------------------------------------------- tracing

LAYERS = (
    ("checks", tracing.CHECKS),
    ("constructions", tracing.CONSTRUCTIONS),
    ("poly", tuple(tracing.POLY_KERNELS)),
    ("rational", tracing.RATIONAL),
)


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    names = {
        "cli.tasks": "count",
        "cli.build_tasks_s": "s",
        "cli.self_s": "s",
        "cli.pool_speedup": "ratio",
        "cli.pool_extra_cpu_s": "s",
    }
    for layer, members in LAYERS:
        for member in members:
            names[f"{layer}.{member}.calls"] = "count"
            names[f"{layer}.{member}.busy_s"] = "s"
        if layer == "constructions":
            for memo in tracing.MEMOS:
                names[f"constructions.{memo}.hit_ratio"] = "ratio"
                names[f"constructions.{memo}.lookups"] = "count"
        if layer == "poly":
            for counter in tracing.COUNTERS:
                names[counter] = "count"
    names["trace.spans"] = "count"
    names["trace.wall_s"] = "s"
    names["trace.overhead_s"] = "s"
    return names


def _sweep_in_process(catb2, workload: Workload, seed: int) -> tuple[str, int, float]:
    cfg = sweep_config(workload, seed, jobs=1)
    catb2.constructions.clear_caches()
    out = io.StringIO()
    with contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        returncode = catb2.cli.run_verify(cfg, out)
        wall = time.perf_counter() - start
    return out.getvalue(), returncode, wall


def traced_run(workload: Workload, seed: int, expected: list[str], spans_path: Path) -> dict:
    """A traced in-process sweep at --jobs 1 between two untraced ones (their
    mean is the base of the tracing overhead), then one untraced sweep
    process each of sweep-default and sweep-jobs2 for the pool metrics."""
    catb2 = _import_catb2()
    plain, plain_rc, before_wall = _sweep_in_process(catb2, workload, seed)
    tracer = tracing.Tracer(catb2)
    tracer.install()
    try:
        traced, traced_rc, traced_wall = _sweep_in_process(catb2, workload, seed)
    finally:
        tracer.uninstall()
    memo_info = {fn.__wrapped__.__name__: fn.cache_info() for fn in catb2.constructions._CACHES}
    tracer.write(spans_path)
    after, after_rc, after_wall = _sweep_in_process(catb2, workload, seed)
    plain_wall = (before_wall + after_wall) / 2

    failed = failed_cells(plain.encode(), plain_rc, workload, expected)
    failed += failed_cells(after.encode(), after_rc, workload, expected)
    # The traced stream must be byte-identical to the untraced one.
    if traced != plain:
        failed += len(expected)
    else:
        failed += failed_cells(traced.encode(), traced_rc, workload, expected)
    attempted = 3 * len(expected)

    pool = {}
    for name in ("sweep-default", "sweep-jobs2"):
        other = WORKLOADS[name]
        other_expected = expected_lines(other)
        sample = run_sweep(other.argv(seed))
        failed += failed_cells(sample.pop("stdout"), sample["returncode"], other, other_expected)
        attempted += len(other_expected)
        pool[name] = sample

    summary = tracer.summary()
    values: dict[str, float] = {
        "cli.tasks": summary["cli.execute_task"]["calls"],
        "cli.build_tasks_s": summary["cli.build_tasks"]["incl_s"],
        "cli.self_s": summary["cli.run_verify"]["self_s"],
        "cli.pool_speedup": pool["sweep-default"]["wall_s"] / pool["sweep-jobs2"]["wall_s"],
        "cli.pool_extra_cpu_s": pool["sweep-jobs2"]["cpu_s"] - pool["sweep-default"]["cpu_s"],
    }
    for layer, members in LAYERS:
        # Callers report inclusive time; the kernel layers report self time.
        busy = "self_s" if layer in ("poly", "rational") else "incl_s"
        for member in members:
            span = summary[f"{layer}.{member}"]
            values[f"{layer}.{member}.calls"] = span["calls"]
            values[f"{layer}.{member}.busy_s"] = span[busy]
    for memo in tracing.MEMOS:
        info = memo_info[memo]
        lookups = info.hits + info.misses
        values[f"constructions.{memo}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        values[f"constructions.{memo}.lookups"] = lookups
    for counter in tracing.COUNTERS:
        values[counter] = tracer.counts[counter]
    values["trace.spans"] = len(tracer)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - plain_wall

    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": _metrics(values, per_layer_names()),
        "samples": {
            "untraced_wall_s": [before_wall, after_wall],
            "pool": pool,
            "spans_file": str(spans_path.relative_to(ROOT)),
        },
    }


# ---------------------------------------------------------------- provenance


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly (no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "catb2").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(workload_name: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": workload_name,
        "argv": WORKLOADS[workload_name].argv(seed),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        # e.g. PYTHONDONTWRITEBYTECODE, which makes every import compile catb2
        "python_env": {k: v for k, v in os.environ.items() if k.startswith("PYTHON")},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# ---------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "catb2" / "cli.py").is_file():
        print(f"perfbench: no catb2 sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    record = provenance(args.workload, args.seed, args.seconds, args.trace)
    record["loadavg_before"] = os.getloadavg()
    expected = expected_lines(workload)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result = traced_run(workload, args.seed, expected, OUT / f"{stem}.spans.csv.gz")
    else:
        result = measure(workload, args.seed, args.seconds, expected)
    record["loadavg_after"] = os.getloadavg()
    record.update(result)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    line = {"correct": result["failed"] == 0}
    line.update((key, result[key]) for key in ("attempted", "failed", "metrics"))
    print(f"perfbench: full record in {(OUT / stem).relative_to(ROOT)}.json", file=sys.stderr)
    print(json.dumps(line))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
