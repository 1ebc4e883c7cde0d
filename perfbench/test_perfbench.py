"""Tests of the benchmark itself (not of catb2).

    python3 -m pytest -q perfbench

They run on the `tiny` grid, which calls every traced function, and take
well under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import speedometer
import tracing

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _check_result_line(stdout: str, section: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert list(result["metrics"]) == list(declared)
    for name, metric in result["metrics"].items():
        assert metric == {"value": metric["value"], "unit": declared[name]}
        assert isinstance(metric["value"], (int, float))
    return result


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_tiny_smoke_run_matches_schema(trace, section):
    proc = _bench("--workload", "tiny", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = _check_result_line(proc.stdout, section)
    if trace == "0":
        assert result["metrics"]["cells_ok_frac"]["value"] == 1.0


def test_declared_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == [w for w in run.WORKLOADS if w != "tiny"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_names()
    assert tracing.CHECKS == run._import_catb2().checks.CHECK_NAMES


def test_seed_permutes_checks_but_not_the_report():
    tiny = run.WORKLOADS["tiny"]
    assert tiny.argv(1) != tiny.argv(2)
    assert run.expected_lines(tiny) == run.expected_lines(
        run.Workload(tiny.i, tiny.m, tuple(reversed(tiny.checks)), tiny.k_extra, 1, tiny.digest)
    )


def test_failed_cells_counts_every_deviation():
    tiny = run.WORKLOADS["tiny"]
    expected = run.expected_lines(tiny)
    good = ("\n".join(expected) + "\n").encode()
    assert run.failed_cells(good, 0, tiny, expected) == 0
    flipped = good.replace(b"RESULT=PASS", b"RESULT=FAIL", 1)
    assert run.failed_cells(flipped, 1, tiny, expected) == 1
    truncated = ("\n".join(expected[:-2]) + "\n").encode()
    assert run.failed_cells(truncated, 0, tiny, expected) == 2
    # right lines, wrong exit code or wrong digest: the whole stream fails
    assert run.failed_cells(good, 3, tiny, expected) == len(expected)
    other_digest = run.Workload(tiny.i, tiny.m, tiny.checks, tiny.k_extra, 1, "0" * 64)
    assert run.failed_cells(good, 0, other_digest, expected) == len(expected)


def test_speed_is_the_mean_nominal_share_of_the_readings_in_its_window():
    nominal = speedometer.NOMINAL_S
    probes = speedometer.Probes(set())
    probes.readings = [(1.0, nominal), (2.0, nominal / 2), (3.0, 2 * nominal), (9.0, nominal)]
    assert probes.speed(0.5, 2.5) == (1 + 2) / 2
    # fewer than two readings inside: the two nearest to the middle, 3.0 and 2.0
    assert probes.speed(4.0, 7.0) == (0.5 + 2) / 2


def test_probes_read_while_running_and_stop_on_exit():
    cpu = min(os.sched_getaffinity(0))
    with speedometer.Probes({cpu}) as probes:
        time.sleep(0.5)
    assert all(proc.returncode == 0 for proc in probes._procs)
    assert len(probes.readings) >= 10
    assert 0 < probes.speed(probes.readings[0][0], probes.readings[-1][0])


def _traced_sweep(seed: int):
    catb2 = run._import_catb2()
    tracer = tracing.Tracer(catb2)
    tracer.install()
    try:
        stdout, returncode, _ = run._sweep_in_process(catb2, run.WORKLOADS["tiny"], seed)
    finally:
        tracer.uninstall()
    memos = {fn.__wrapped__.__name__: fn.cache_info() for fn in catb2.constructions._CACHES}
    return stdout, returncode, tracer, memos


def test_traced_stream_is_identical_and_every_wrapper_is_called():
    catb2 = run._import_catb2()
    plain, plain_rc, _ = run._sweep_in_process(catb2, run.WORKLOADS["tiny"], 0)
    traced, traced_rc, tracer, _ = _traced_sweep(0)
    assert (traced, traced_rc) == (plain, plain_rc) == (traced, 0)
    tiny = run.WORKLOADS["tiny"]
    assert run.failed_cells(traced.encode(), 0, tiny, run.expected_lines(tiny)) == 0
    never_called = [name for name, span in tracer.summary().items() if span["calls"] == 0]
    assert never_called == []
    # uninstall restored every original (no wrapper left in any namespace)
    assert catb2.poly.BiPoly.__mul__ is catb2.poly.BiPoly.__rmul__
    assert catb2.checks.deformed_poly is catb2.constructions.deformed_poly
    assert catb2.constructions.deformed_poly in catb2.constructions._CACHES


def test_counts_repeat_exactly_across_traced_runs():
    _, _, tracer_a, memos_a = _traced_sweep(0)
    _, _, tracer_b, memos_b = _traced_sweep(7)
    calls_a = {name: span["calls"] for name, span in tracer_a.summary().items()}
    calls_b = {name: span["calls"] for name, span in tracer_b.summary().items()}
    assert calls_a == calls_b
    assert dict(tracer_a.counts) == dict(tracer_b.counts)
    assert tracer_a.counts["poly.BiPoly.mul.term_products"] > 0
    assert tracer_a.counts["poly.UniPoly.mul.term_products"] > 0
    assert memos_a == memos_b


def test_refuses_to_run_without_the_program():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = _bench("--workload", "sweep-default", "--seed", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare)
