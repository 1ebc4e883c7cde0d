"""Harness behaviour: ranges, selection, report formats, exit codes."""

import concurrent.futures
import dataclasses
import io
import json
import multiprocessing
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from test_checks import MUTATIONS, mutated
from textform import parse

from catb2 import checks
from catb2 import cli
from catb2.cli import SweepConfig, UsageError, build_tasks, main, parse_checks, parse_range, run_verify


def _cfg(**kwargs) -> SweepConfig:
    base = dict(
        i_range=(0, 1),
        m_range=(0, 1),
        k_extra=1,
        checks=("theorem",),
        format="text",
        jobs=1,
    )
    base.update(kwargs)
    return SweepConfig(**base)


def _verify_lines(cfg: SweepConfig) -> tuple[int, list[str]]:
    out = io.StringIO()
    code = run_verify(cfg, out=out)
    return code, out.getvalue().splitlines()


def test_parse_range():
    assert parse_range("0..4") == (0, 4)
    assert parse_range("3") == (3, 3)
    with pytest.raises(UsageError):
        parse_range("a..b")


def test_range_validation():
    with pytest.raises(UsageError):
        _cfg(i_range=(2, 1))
    with pytest.raises(UsageError):
        _cfg(m_range=(-1, 0))
    with pytest.raises(UsageError):
        _cfg(jobs=0)


def test_parse_checks():
    assert parse_checks("all")[0] == "expansion"
    assert parse_checks("saito,theorem") == ("theorem", "saito")  # registry order
    with pytest.raises(UsageError):
        parse_checks("nosuch")


def test_verify_text_report_grid():
    code, lines = _verify_lines(_cfg(i_range=(0, 2), m_range=(0, 2)))
    assert code == 0
    assert len(lines) == 9
    assert lines[0] == "CHECK=theorem i=0 m=0 RESULT=PASS"
    assert all(line.endswith("RESULT=PASS") for line in lines)


def test_verify_skip_lines():
    code, lines = _verify_lines(_cfg(checks=("prop1",), i_range=(0, 1), m_range=(0, 0)))
    assert code == 0  # skips do not fail the run
    assert lines[0] == "CHECK=prop1 i=0 m=0 RESULT=SKIP"
    assert lines[1] == "CHECK=prop1 i=1 m=0 RESULT=PASS"


def test_verify_vrec_skip_at_m0():
    _, lines = _verify_lines(_cfg(checks=("v-recurrence",), m_range=(0, 1)))
    assert "CHECK=v-recurrence i=0 m=0 RESULT=SKIP" in lines
    assert "CHECK=v-recurrence i=0 m=1 RESULT=PASS" in lines


def test_verify_json_records_parse():
    cfg = _cfg(checks=("saito",), i_range=(0, 0), m_range=(0, 0), format="json")
    code, lines = _verify_lines(cfg)
    assert code == 0
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record == {
        "check": "saito",
        "params": {"m": 0},
        "result": "PASS",
        "C": "-1/3",
    }


def test_verify_json_prop3_carries_constants():
    cfg = _cfg(checks=("prop3",), i_range=(0, 0), m_range=(0, 0), format="json")
    _, lines = _verify_lines(cfg)
    record = json.loads(lines[0])
    assert record["A"] == "2" and record["B"] == "2"


def test_lemma2_lines_use_its_parameter_names():
    _, lines = _verify_lines(_cfg(checks=("lemma2",), i_range=(1, 1), m_range=(2, 2)))
    assert lines == ["CHECK=lemma2 a=1 b=2 RESULT=PASS"]


def test_task_order_is_deterministic():
    cfg = _cfg(checks=("theorem", "saito"), i_range=(0, 1), m_range=(0, 1))
    assert build_tasks(cfg) == build_tasks(cfg)
    names = [task[1] for task in build_tasks(cfg)]
    assert names == ["theorem"] * 4 + ["saito"] * 2


def test_cell_parameter_ranges():
    # lemma1: l <= m+1; prop2: k <= m+k_extra; lemma3: k <= m+k_extra, l <= k+1
    cfg = _cfg(checks=("lemma1", "prop2", "lemma3"), i_range=(1, 1), m_range=(1, 1))
    cell = (("i", 1), ("m", 1))
    assert build_tasks(cfg) == (
        [("run", "lemma1", cell + (("l", l),)) for l in range(3)]
        + [("run", "prop2", cell + (("k", k),)) for k in range(3)]
        + [("run", "lemma3", cell + (("k", k), ("l", l))) for k in range(3) for l in range(k + 2)]
    )


def test_jobs_do_not_change_output():
    cfg1 = _cfg(i_range=(0, 2), m_range=(0, 2), checks=("parity", "degree"))
    cfg2 = _cfg(i_range=(0, 2), m_range=(0, 2), checks=("parity", "degree"), jobs=3)
    assert _verify_lines(cfg1) == _verify_lines(cfg2)


@pytest.mark.parametrize("cpus, workers", [(3, 3), (64, 4), (None, None)])
def test_pool_size_is_capped_by_cpus_and_tasks(monkeypatch, cpus, workers):
    """`cpus` usable CPUs, first as the affinity mask of a 64-CPU host (None:
    a mask of one CPU), then as the CPU count of a platform that has no
    affinity call."""
    created = []

    class InProcessPool:
        """Records the requested pool size and runs the tasks in-process."""

        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    cfg = _cfg(checks=("degree",), jobs=5000)  # 4 tasks
    expected = [] if workers is None else [workers]  # 1 worker runs in-process

    def pool_sizes():
        created.clear()
        code, lines = _verify_lines(cfg)
        assert code == 0 and len(lines) == 4
        return created

    mask = set(range(cpus or 1))
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: mask, raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    assert pool_sizes() == expected
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    assert pool_sizes() == expected


def _group_key(task) -> tuple:
    """(m, i) of a task as the scheduler reads it: lemma2's (a, b) is (i, m)."""
    params = dict(task[2])
    return params.get("m", params.get("b")), params.get("i", params.get("a"))


def test_task_groups_cover_every_task_once_by_descending_m():
    tasks = build_tasks(_cfg(checks=parse_checks("all"), i_range=(0, 2), m_range=(0, 3)))
    groups = cli._task_groups(tasks, workers=2)
    assert sorted(index for group in groups for index in group) == list(range(len(tasks)))
    assert all(group == sorted(group) for group in groups)  # report order inside
    assert [{_group_key(tasks[index])[0] for index in group} for group in groups] == [
        {3}, {2}, {1}, {0}
    ]
    lemma2 = [index for index, task in enumerate(tasks) if task[1] == "lemma2"]
    assert len(lemma2) == 12
    for index in lemma2:
        b = dict(tasks[index][2])["b"]
        assert index in groups[3 - b]


def test_task_groups_split_a_sweep_of_fewer_m_than_workers_by_cell():
    tasks = build_tasks(_cfg(checks=parse_checks("all"), i_range=(0, 6), m_range=(8, 8)))
    assert cli._task_groups(tasks, workers=1) == [list(range(len(tasks)))]
    groups = cli._task_groups(tasks, workers=2)
    cells = [{_group_key(tasks[index]) for index in group} for group in groups]
    # saito's task (no i) was kept for the first i and joins that cell
    assert cells == [{(8, i)} for i in range(6, 0, -1)] + [{(8, 0), (8, None)}]


def test_one_cell_sweep_runs_in_process(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-cell sweep started a pool")

    cfg = _cfg(checks=parse_checks("all"), i_range=(1, 1), m_range=(1, 1))
    sequential = _verify_lines(cfg)
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    assert _verify_lines(dataclasses.replace(cfg, jobs=2)) == sequential


def test_exit_one_on_failure():
    *mutation, _ = MUTATIONS["expansion"]
    with mutated(*mutation):
        code, lines = _verify_lines(
            _cfg(checks=("expansion",), i_range=(1, 1), m_range=(1, 1))
        )
    assert code == 1
    assert lines[0].startswith("CHECK=expansion i=1 m=1 RESULT=FAIL WITNESS=")
    witness = lines[0].split("WITNESS=", 1)[1]
    assert parse(witness)


def test_main_unknown_check_is_usage_error(capsys):
    assert main(["verify", "--checks", "nosuch"]) == 2
    assert "unknown checks" in capsys.readouterr().err


def test_main_bad_range_is_usage_error(capsys):
    assert main(["verify", "--i", "5..1"]) == 2
    capsys.readouterr()


def test_main_verify_small_grid(capsys):
    code = main(["verify", "--i", "0..0", "--m", "0..0", "--checks", "degree"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "CHECK=degree i=0 m=0 RESULT=PASS\n"


def test_basis_text_base_case(capsys):
    assert main(["basis", "--m", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "f0=1 * x^1",
        "f1=1/3 * x^3 + -1/3 * x^1",
        "C=-1/3",
        "A0=2",
        "A1=2/3",
        "B0=2",
        "B1=2/3",
    ]


def test_basis_m1_constant(capsys):
    assert main(["basis", "--m", "1"]) == 0
    assert "C=4/105" in capsys.readouterr().out.splitlines()


def test_basis_json_round_trips(capsys):
    assert main(["basis", "--m", "1", "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert list(record) == ["f0", "f1", "C", "A0", "A1", "B0", "B1"]
    assert parse(record["f0"]) and parse(record["f1"])  # canonical text
    assert Fraction(record["C"]) == Fraction(4, 105)


def test_basis_rejects_negative_m(capsys):
    assert main(["basis", "--m", "-1"]) == 2
    capsys.readouterr()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "catb2", "verify", "--i", "0..1", "--m", "0..0",
         "--checks", "parity", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["params"]["i"] for r in records] == [0, 1]


def test_console_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "catb2", "verify", "--checks", "nosuch"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


class _ClosedPipe(io.StringIO):
    def write(self, text: str) -> int:
        raise BrokenPipeError(32, "Broken pipe")


def test_pool_is_shut_down_when_output_fails():
    cfg = _cfg(i_range=(0, 3), m_range=(0, 3), checks=("parity", "degree"), jobs=2)
    with pytest.raises(BrokenPipeError):
        run_verify(cfg, out=_ClosedPipe())
    assert multiprocessing.active_children() == []


def test_closed_stdout_exits_3_without_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "catb2", "verify", "--i", "0..1", "--m", "0..1",
         "--checks", "parity"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # the reader is gone before the first write
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=60) == 3
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


@pytest.fixture
def broken_cell(monkeypatch):
    """Make the theorem check raise on cell (1, 0); every other cell runs."""
    original = checks.check_theorem

    def check(i, m):
        if (i, m) == (1, 0):
            raise RuntimeError("boom\n  in cell (1, 0)")
        return original(i, m)

    monkeypatch.setattr(checks, "check_theorem", check)


def test_crashing_cell_reports_error_and_sweep_continues(broken_cell, capsys):
    code = main(["verify", "--i", "0..1", "--m", "0..1", "--checks", "theorem,degree"])
    captured = capsys.readouterr()
    assert code == 3
    lines = captured.out.splitlines()
    assert len(lines) == 8
    assert lines[2] == "CHECK=theorem i=1 m=0 RESULT=ERROR ERROR=RuntimeError: boom in cell (1, 0)"
    assert all(line.endswith("RESULT=PASS") for k, line in enumerate(lines) if k != 2)
    assert captured.err.startswith("catb2: CHECK=theorem i=1 m=0 raised:\nTraceback")
    assert captured.err.endswith("catb2: 7 passed, 0 failed, 0 skipped, 1 raised\n")


def test_crashing_cell_json_record(broken_cell):
    cfg = _cfg(checks=("theorem",), i_range=(1, 1), m_range=(0, 0), format="json")
    code, lines = _verify_lines(cfg)
    assert code == 3
    assert json.loads(lines[0]) == {
        "check": "theorem",
        "params": {"i": 1, "m": 0},
        "result": "ERROR",
        "error": "RuntimeError: boom in cell (1, 0)",
    }


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers see the patched check only when forked",
)
def test_crashing_cell_under_pool_matches_sequential(broken_cell):
    cfg = _cfg(i_range=(0, 2), m_range=(0, 2), checks=("theorem", "parity"))
    sequential = _verify_lines(cfg)
    assert sequential[0] == 3
    assert "CHECK=theorem i=1 m=0 RESULT=ERROR" in sequential[1][3]
    assert _verify_lines(dataclasses.replace(cfg, jobs=2)) == sequential


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers see the patched check only when forked",
)
def test_dead_worker_exits_three(monkeypatch, capsys):
    original = checks.check_degree

    def check(i, m):
        if m == 3:
            os._exit(9)  # as if the worker were killed
        return original(i, m)

    monkeypatch.setattr(checks, "check_degree", check)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    assert main(["verify", "--m", "0..3", "--checks", "degree", "--jobs", "2"]) == 3
    err = capsys.readouterr().err
    assert err == "catb2: error: a worker process died; the report is incomplete\n"
