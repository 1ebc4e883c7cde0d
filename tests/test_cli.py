"""Harness behaviour: ranges, selection, report formats, exit codes."""

import gc
import io
import json
import os
import signal
import subprocess
import sys
import threading
from fractions import Fraction

import pytest

from test_checks import MUTATIONS, mutated
from textform import parse

from catb2 import checks
from catb2 import cli
from catb2.cli import SweepConfig, UsageError, build_tasks, main, parse_checks, parse_range, run_verify
from catb2.rational import clear_caches


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
    with pytest.raises(UsageError):
        _cfg()._replace(jobs=0)  # a copy is validated too


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


class _CountingOut(io.StringIO):
    def __init__(self) -> None:
        super().__init__()
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_each_report_line_is_one_write(fmt):
    # an unbuffered stdout makes every write a system call
    out = _CountingOut()
    cfg = _cfg(i_range=(0, 2), m_range=(0, 2), checks=("theorem", "lemma3"), format=fmt)
    assert run_verify(cfg, out=out) == 0
    lines = out.getvalue().splitlines()
    assert len(lines) > 9 and out.writes == len(lines)


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
    assert list(build_tasks(cfg)) == list(build_tasks(cfg))  # dict == ignores order
    names = [task[1] for task in build_tasks(cfg)]
    assert names == ["theorem"] * 4 + ["saito"] * 2


def test_cell_parameter_ranges():
    # lemma1: l <= m+1; prop2: k <= m+k_extra; lemma3: k <= m+k_extra, l <= k+1
    cfg = _cfg(checks=("lemma1", "prop2", "lemma3"), i_range=(1, 1), m_range=(1, 1))
    cell = (("i", 1), ("m", 1))
    assert list(build_tasks(cfg)) == (
        [("run", "lemma1", cell + (("l", l),)) for l in range(3)]
        + [("run", "prop2", cell + (("k", k),)) for k in range(3)]
        + [("run", "lemma3", cell + (("k", k), ("l", l))) for k in range(3) for l in range(k + 2)]
    )


def test_half_integer_route_passes_far_beyond_the_poles():
    """k - m up to 10: deeper negative-length falling factorials than any
    benchmark workload or the mutation sweep reach."""
    cfg = _cfg(checks=("prop2", "lemma3"), i_range=(0, 3), m_range=(0, 3), k_extra=10)
    code, lines = _verify_lines(cfg)
    assert code == 0
    assert len(lines) == len(build_tasks(cfg))
    assert all(line.endswith(("RESULT=PASS", "RESULT=SKIP")) for line in lines)


def test_jobs_do_not_change_output():
    cfg1 = _cfg(i_range=(0, 2), m_range=(0, 2), checks=("parity", "degree"))
    cfg2 = _cfg(i_range=(0, 2), m_range=(0, 2), checks=("parity", "degree"), jobs=3)
    assert _verify_lines(cfg1) == _verify_lines(cfg2)


@pytest.fixture
def forked(monkeypatch):
    """The pids `os.fork` returns to this process while the test runs, each
    with the number of threads this process had when it forked."""
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    forked, fork = [], os.fork

    def spy():
        threads = threading.active_count()
        pid = fork()
        if pid:
            forked.append((pid, threads))
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return forked


def _reaped(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.mark.parametrize("cpus, workers", [(3, 3), (64, 4), (None, None)])
def test_pool_size_is_capped_by_cpus_and_tasks(monkeypatch, forked, cpus, workers):
    """`cpus` usable CPUs, first as the affinity mask of a 64-CPU host (None:
    a mask of one CPU), then as the CPU count of a platform that has no
    affinity call.  The pool forks one process per worker."""
    cfg = _cfg(checks=("degree",), jobs=5000)  # 4 tasks
    expected = workers or 0  # 1 worker runs in-process

    def pool_sizes():
        forked.clear()
        code, lines = _verify_lines(cfg)
        assert code == 0 and len(lines) == 4
        assert all(_reaped(pid) for pid, _ in forked)
        return len(forked)

    mask = set(range(cpus or 1))
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: mask, raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    assert pool_sizes() == expected
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    assert pool_sizes() == expected


def test_every_task_maps_to_the_grid_cell_that_produced_it():
    tasks = build_tasks(_cfg(checks=parse_checks("all"), i_range=(1, 3), m_range=(0, 2)))
    for (_, name, params), cell in tasks.items():
        p = dict(params)
        if name == "lemma2":
            assert cell == (p["b"], p["a"])
        elif name == "saito":
            assert cell == (p["m"], 1)  # no i: the first i of the grid keeps it
        else:  # every other task, SKIPs included, names its own i and m
            assert cell == (p["m"], p["i"])
    assert sum(task[0] == "skip" for task in tasks) == 3  # v-recurrence at m = 0


def test_task_groups_cover_every_task_once_by_descending_m():
    tasks = build_tasks(_cfg(checks=parse_checks("all"), i_range=(0, 2), m_range=(0, 3)))
    groups = cli._task_groups(tasks, workers=2)
    order = list(tasks)
    assert sorted(sum(groups, []), key=order.index) == order
    assert all(group == sorted(group, key=order.index) for group in groups)  # report order inside
    assert [{tasks[task][0] for task in group} for group in groups] == [{3}, {2}, {1}, {0}]
    lemma2 = [task for task in tasks if task[1] == "lemma2"]
    assert len(lemma2) == 12
    for task in lemma2:
        assert task in groups[3 - dict(task[2])["b"]]


def test_task_groups_split_a_sweep_of_fewer_m_than_workers_by_cell():
    tasks = build_tasks(_cfg(checks=parse_checks("all"), i_range=(0, 6), m_range=(8, 8)))
    assert cli._task_groups(tasks, workers=1) == [list(tasks)]
    groups = cli._task_groups(tasks, workers=2)
    cells = [{tasks[task] for task in group} for group in groups]
    assert cells == [{(8, i)} for i in range(6, -1, -1)]
    assert ("run", "saito", (("m", 8),)) in groups[-1]  # kept for the first i


@pytest.mark.skipif(
    not hasattr(os, "fork"),
    reason="the pool forks its workers; without os.fork there is no pool to compare",
)
def test_per_cell_pool_matches_sequential(monkeypatch):
    """One m and four i: the pool runs a group per (m, i) cell, with lemma2's
    (a, b) and saito's i-less task among them."""
    cfg = _cfg(checks=parse_checks("all"), i_range=(0, 3), m_range=(3, 3))
    assert len(cli._task_groups(build_tasks(cfg), workers=2)) == 4
    sequential = _verify_lines(cfg)
    assert "CHECK=lemma2 a=0 b=3 RESULT=PASS" in sequential[1]
    assert "CHECK=saito m=3 RESULT=PASS" in sequential[1]
    monkeypatch.setattr(cli, "_cpus", lambda: [None, None])
    assert _verify_lines(cfg._replace(jobs=2)) == sequential


def test_one_cell_sweep_runs_in_process(monkeypatch, forked):
    cfg = _cfg(checks=parse_checks("all"), i_range=(1, 1), m_range=(1, 1))
    sequential = _verify_lines(cfg)
    monkeypatch.setattr(cli, "_cpus", lambda: [None, None])
    assert _verify_lines(cfg._replace(jobs=2)) == sequential
    assert forked == []


@pytest.mark.parametrize(
    "mask, expected",
    [({3}, [3]), ({5, 1}, [1, 5]), (set(range(64)), list(range(64))), (None, [None] * 4)],
    ids=["1-cpu", "2-cpus", "64-cpus", "no-affinity-call"],
)
def test_cpus(monkeypatch, mask, expected):
    """The sorted affinity mask, and without an affinity call None for each
    CPU of the host."""
    if mask is None:
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    else:
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: mask, raising=False)
    assert cli._cpus() == expected


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2
    or not hasattr(os, "fork"),
    reason="needs two CPUs in the mask; the workers see the patched check only when forked",
)
def test_pool_workers_run_on_different_cpus(monkeypatch):
    def report_placement(i, m):
        return checks.CheckReport(data={"cpus": sorted(os.sched_getaffinity(0)), "pid": os.getpid()})

    monkeypatch.setattr(checks, "check_degree", report_placement)
    cfg = _cfg(checks=("degree",), i_range=(0, 1), m_range=(0, 3), format="json", jobs=2)
    code, lines = _verify_lines(cfg)
    assert code == 0
    mask = os.sched_getaffinity(0)
    placed = {}
    for record in map(json.loads, lines):
        (cpu,) = record["cpus"]
        assert cpu in mask
        assert placed.setdefault(record["pid"], cpu) == cpu
    assert os.getpid() not in placed
    assert len(set(placed.values())) == len(placed)


# A --jobs 2 sweep forced onto one CPU: both workers must get it.
_ONE_CPU_SWEEP = """
import os, sys
from catb2 import cli
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
cli._cpus = lambda: sorted(os.sched_getaffinity(0)) * 2
sys.exit(cli.main(["verify", "--i", "0..1", "--m", "0..3", "--checks", "parity,degree", "--jobs", "2"]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs an affinity call")
def test_two_workers_on_one_cpu_finish():
    proc = subprocess.run(
        [sys.executable, "-c", _ONE_CPU_SWEEP], capture_output=True, text=True, timeout=120
    )
    cfg = _cfg(checks=("parity", "degree"), i_range=(0, 1), m_range=(0, 3))
    assert (proc.returncode, proc.stdout.splitlines()) == _verify_lines(cfg)


@pytest.mark.skipif(
    not hasattr(os, "fork"),
    reason="pool workers see the patched affinity call only when forked",
)
def test_refused_pinning_leaves_the_pool_working(monkeypatch):
    def refuse(pid, cpus):
        raise OSError(22, "Invalid argument")

    cfg = _cfg(checks=("parity", "degree"), i_range=(0, 1), m_range=(0, 3))
    sequential = _verify_lines(cfg)
    monkeypatch.setattr(cli.os, "sched_setaffinity", refuse, raising=False)
    monkeypatch.setattr(cli, "_cpus", lambda: [0, 0])  # each worker asks for a CPU
    assert _verify_lines(cfg._replace(jobs=2)) == sequential


def test_cold_pool_sweep_leaves_stderr_clean():
    """A cold `catb2 verify --jobs 2` (with a pool even on one CPU) prints
    the summary alone: no traceback from a worker's start and no warning of a
    leaked semaphore from the resource tracker at exit."""
    script = (
        "import sys; from catb2 import cli; cpus = cli._cpus() * 2; "
        "cli._cpus = lambda: cpus; sys.exit(cli.main())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "verify", "--jobs", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == "catb2: 870 passed, 0 failed, 20 skipped\n"


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


def _loaded_modules(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after running `statement`."""
    probe = f"import sys; {statement}; print(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def test_import_leaves_the_pool_modules_unloaded():
    probe = "import sys, catb2.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n")
    # A text sweep needs none of these, so a cold import must not load them;
    # what the interpreter loads by itself (a site hook, say) does not count.
    added = _loaded_modules("import catb2.cli") - _loaded_modules("pass")
    unused = {"dataclasses", "inspect", "traceback", "json", "concurrent.futures", "multiprocessing"}
    assert added & unused == set()
    # Nor does a sweep with a pool of two load the standard library's pools.
    sweep = (
        "import io; from catb2 import cli; cli._cpus = lambda: [None, None]; "
        "cli.run_verify(cli.SweepConfig((0, 1), (0, 3), 1, ('degree',), 'text', 2), io.StringIO())"
    )
    added = _loaded_modules(sweep) - _loaded_modules("pass")
    assert "select" in added  # the pool ran
    assert added & {"concurrent.futures", "multiprocessing"} == set()


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


def test_pool_is_shut_down_when_output_fails(monkeypatch, forked):
    cfg = _cfg(i_range=(0, 3), m_range=(0, 3), checks=("parity", "degree"), jobs=2)
    monkeypatch.setattr(cli, "_cpus", lambda: [None, None])  # a pool even on one CPU
    with pytest.raises(BrokenPipeError):
        run_verify(cfg, out=_ClosedPipe())
    assert len(forked) == 2
    assert all(_reaped(pid) for pid, _ in forked)


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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
def test_full_device_exits_3_with_one_line():
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "catb2", "verify", "--i", "0..1", "--m", "0..1"],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == (
        "catb2: error: [Errno 28] No space left on device; the report is incomplete"
    )


def test_interrupted_pool_is_shut_down(monkeypatch, forked):
    class Interrupted(io.StringIO):
        def write(self, text: str) -> int:
            raise KeyboardInterrupt

    monkeypatch.setattr(sys, "stdout", Interrupted())
    monkeypatch.setattr(cli, "_cpus", lambda: [None, None])  # a pool even on one CPU
    argv = ["verify", "--i", "0..3", "--m", "0..3", "--checks", "parity,degree", "--jobs", "2"]
    assert main(argv) == 130
    assert len(forked) == 2
    assert all(_reaped(pid) for pid, _ in forked)


@pytest.mark.skipif(os.name != "posix", reason="sends SIGINT")
@pytest.mark.parametrize("jobs, whole_group", [(1, False), (2, False), (2, True)])
def test_sigint_exits_130_without_traceback(jobs, whole_group):
    """SIGINT after the first report line, to the parent only or, as Ctrl-C
    at a terminal does, to the whole process group with the pool workers.
    The report is larger than a pipe buffer and is not read meanwhile, so
    the sweep cannot have ended before the signal."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "catb2", "verify", "--m", "0..12", "--format", "json",
         "--jobs", str(jobs)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONUNBUFFERED": "1"},
        start_new_session=True,
    )
    assert json.loads(proc.stdout.readline())["check"] == "expansion"
    if whole_group:
        os.killpg(proc.pid, signal.SIGINT)
    else:
        proc.send_signal(signal.SIGINT)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 130
    assert b"Traceback" not in err
    assert err.endswith(b"catb2: interrupted; the report is incomplete\n")


# A sweep whose m = 1 group never finishes: its worker reports its start on
# stderr and then waits forever.  After main returns, the script reports how
# many processes the pool forked and how many of them are still unreaped.
_BLOCKED_SWEEP = """
import os, sys, threading
from catb2 import checks, cli

original, fork, forked = checks.check_degree, os.fork, []

def spy():
    pid = fork()
    forked.append(pid)
    return pid

def unreaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return False
    return True

def check_degree(i, m):
    if m == 1:
        print("blocked", file=sys.stderr, flush=True)
        threading.Event().wait()
    return original(i, m)

os.fork = spy
checks.check_degree = check_degree
cli._cpus = lambda: [None, None]
code = cli.main(["verify", "--i", "0", "--m", "0..1", "--checks", "degree", "--jobs", "2"])
print("forked:", len(forked), "unreaped:", sum(map(unreaped, forked)), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.skipif(
    os.name != "posix" or not hasattr(os, "fork"),
    reason="sends SIGINT; the workers see the patched check only when forked",
)
def test_sigint_to_the_parent_alone_ends_the_running_groups():
    """The parent alone is signalled while a worker runs a group that cannot
    finish: it must end that worker instead of waiting for it."""
    proc = subprocess.Popen(
        [sys.executable, "-c", _BLOCKED_SWEEP],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        assert proc.stderr.readline() == b"blocked\n"
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=120)  # a guard against a hang only
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 130
    assert err == b"catb2: interrupted; the report is incomplete\nforked: 2 unreaped: 0\n"


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


# The theorem check raises on cell (1, 0) in a fresh interpreter, which has
# loaded no traceback module before the check raises.
_RAISING_SWEEP = """
import sys
from catb2 import checks, cli

def check_theorem(i, m):
    raise RuntimeError("boom")

checks.check_theorem = check_theorem
sys.exit(cli.main(["verify", "--i", "1", "--m", "0", "--checks", "theorem"]))
"""


def test_cold_crashing_cell_prints_its_traceback():
    proc = subprocess.run(
        [sys.executable, "-c", _RAISING_SWEEP], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 3
    assert proc.stdout == "CHECK=theorem i=1 m=0 RESULT=ERROR ERROR=RuntimeError: boom\n"
    assert proc.stderr.startswith("catb2: CHECK=theorem i=1 m=0 raised:\nTraceback")
    assert proc.stderr.endswith("catb2: 0 passed, 0 failed, 0 skipped, 1 raised\n")


def test_cold_basis_json_parses():
    proc = subprocess.run(
        [sys.executable, "-m", "catb2", "basis", "--m", "1", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    out = io.StringIO()
    assert cli.run_basis(1, "text", out) == 0
    assert json.loads(proc.stdout) == dict(line.split("=", 1) for line in out.getvalue().splitlines())


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
    not hasattr(os, "fork"),
    reason="pool workers see the patched check only when forked",
)
def test_crashing_cell_under_pool_matches_sequential(broken_cell):
    cfg = _cfg(i_range=(0, 2), m_range=(0, 2), checks=("theorem", "parity"))
    sequential = _verify_lines(cfg)
    assert sequential[0] == 3
    assert "CHECK=theorem i=1 m=0 RESULT=ERROR" in sequential[1][3]
    assert _verify_lines(cfg._replace(jobs=2)) == sequential


@pytest.mark.skipif(
    not hasattr(os, "fork"),
    reason="pool workers see the patched check only when forked",
)
def test_dead_worker_exits_three(monkeypatch, capsys):
    original = checks.check_degree

    def check(i, m):
        if m == 3:
            os._exit(9)  # as if the worker were killed
        return original(i, m)

    monkeypatch.setattr(checks, "check_degree", check)
    monkeypatch.setattr(cli, "_cpus", lambda: [None, None])
    assert main(["verify", "--m", "0..3", "--checks", "degree", "--jobs", "2"]) == 3
    err = capsys.readouterr().err
    assert err == "catb2: error: a worker process died; the report is incomplete\n"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks its workers")
def test_frame_cut_short_exits_three(monkeypatch, capsys):
    """A worker that ends in the middle of its results, after their length,
    with a clean exit status: the pipe alone shows that it died."""
    parent, write = os.getpid(), os.write

    def cut_short(fd, data):
        if os.getpid() == parent:
            return write(fd, data)
        write(fd, data[:-1])
        os._exit(0)

    monkeypatch.setattr(os, "write", cut_short)
    monkeypatch.setattr(cli, "_cpus", lambda: [None, None])
    assert main(["verify", "--m", "0..3", "--checks", "degree", "--jobs", "2"]) == 3
    err = capsys.readouterr().err
    assert err == "catb2: error: a worker process died; the report is incomplete\n"


def test_pool_forks_from_a_single_thread(monkeypatch, forked):
    """Forking a process that has threads can deadlock the child (Python
    3.12 and later warn of it), so the pool must start no thread of its own."""
    cfg = _cfg(i_range=(0, 3), m_range=(0, 3), checks=("parity", "degree"))
    sequential = _verify_lines(cfg)
    monkeypatch.setattr(cli, "_cpus", lambda: [None, None])
    assert _verify_lines(cfg._replace(jobs=2)) == sequential
    assert [threads for _, threads in forked] == [1, 1]


def test_pool_runs_in_a_process_holding_many_files(monkeypatch, forked):
    """With over a thousand files open, the pool's pipes get descriptors
    past 1023, which `select.select` refuses."""
    resource = pytest.importorskip("resource")
    if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1200:
        pytest.skip("the open-files limit is too low")
    cfg = _cfg(i_range=(0, 3), m_range=(0, 3), checks=("parity", "degree"))
    sequential = _verify_lines(cfg)
    monkeypatch.setattr(cli, "_cpus", lambda: [None, None])
    held = [os.open(os.devnull, os.O_RDONLY) for _ in range(1100)]
    try:
        assert _verify_lines(cfg._replace(jobs=2)) == sequential
    finally:
        for fd in held:
            os.close(fd)
    assert len(forked) == 2


def test_a_platform_without_fork_sweeps_in_process(monkeypatch):
    placed = []

    def degree(i, m):
        placed.append(os.getpid())
        return checks.CheckReport()

    monkeypatch.setattr(checks, "check_degree", degree)
    cfg = _cfg(i_range=(0, 3), m_range=(0, 3), checks=("parity", "degree"))
    sequential = _verify_lines(cfg)
    monkeypatch.delattr(os, "fork", raising=False)
    monkeypatch.setattr(cli, "_cpus", lambda: [None, None])
    placed.clear()
    assert _verify_lines(cfg._replace(jobs=2)) == sequential
    assert placed == [os.getpid()] * 16


# 20,000 one-cell groups, each a SKIP: more group indices than a 64 KiB pipe
# holds at once, so a pool that queued them all up front would block.
_MANY_GROUPS = """
import sys
from catb2 import cli
cli._cpus = lambda: [None, None]
sys.exit(cli.main(["verify", "--checks", "v-recurrence", "--i", "0..19999", "--m", "0", "--jobs", "2"]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks its workers")
def test_more_groups_than_a_pipe_holds_finish():
    proc = subprocess.run(
        [sys.executable, "-c", _MANY_GROUPS], capture_output=True, text=True, timeout=120
    )
    cfg = _cfg(checks=("v-recurrence",), i_range=(0, 19999), m_range=(0, 0))
    assert len(cli._task_groups(build_tasks(cfg), workers=2)) == 20000
    assert (proc.returncode, proc.stdout.splitlines()) == _verify_lines(cfg)


@pytest.mark.parametrize("sweep", ["default", "every-cell-raises", "pool"])
def test_a_sweep_leaves_no_cyclic_garbage(monkeypatch, sweep):
    """`python -m catb2` runs without the cyclic collector, which is sound only
    while nothing a sweep builds, or drops on the way, is part of a cycle.  The
    sweep runs with cold memos, which are then emptied, so a cycle inside a
    memoized value is garbage too; a warm-up sweep first imports everything."""
    cfg = _cfg(i_range=(0, 4), m_range=(0, 4), k_extra=2, checks=checks.CHECK_NAMES)
    if sweep == "every-cell-raises":

        def check(i, m):
            raise RuntimeError(f"boom in cell ({i}, {m})")

        monkeypatch.setattr(checks, "check_degree", check)
    if sweep == "pool":
        if not hasattr(os, "fork"):
            pytest.skip("needs os.fork")
        monkeypatch.setattr(cli, "_cpus", lambda: [None, None])
        cfg = cfg._replace(jobs=2)
    expected = run_verify(cfg, io.StringIO())
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        clear_caches()
        assert run_verify(cfg, io.StringIO()) == expected
        clear_caches()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# The hook is registered before the entry runs, so it runs after the entry
# has returned and the interpreter has begun to shut down.
_ENTRY_PROBE = """
import atexit, gc, runpy, sys
atexit.register(lambda: print(f"frozen={gc.get_freeze_count() > 0} enabled={gc.isenabled()}", file=sys.stderr))
if sys.argv.pop(1) == "console-script":  # what the installed `catb2` runs
    from catb2.__main__ import main
    sys.exit(main())
runpy.run_module("catb2", run_name="__main__")  # what `python -m catb2` runs
"""


@pytest.mark.parametrize("entry", ["console-script", "python-m"])
def test_the_process_entry_freezes_the_heap_before_shutdown(capsys, entry):
    args = ["verify", "--i", "0..1", "--m", "0..1", "--checks", "parity,theorem"]
    proc = subprocess.run(
        [sys.executable, "-c", _ENTRY_PROBE, entry, *args], capture_output=True, text=True, timeout=60
    )
    code = main(args)
    out, err = capsys.readouterr()
    assert (proc.returncode, proc.stdout) == (code, out)
    assert proc.stderr == err + "frozen=True enabled=False\n"


# Each parity cell fails with a witness that says whether the collector was on
# in the process that ran it, and whether that was a forked worker.
_POOL_COLLECTOR_PROBE = """
import gc, os, sys
from catb2 import checks, cli
from catb2.__main__ import main

parent = os.getpid()
checks.check_parity = lambda i, m: checks.CheckReport(f"enabled={gc.isenabled()},worker={os.getpid() != parent}")
cli._cpus = lambda: [None, None]
sys.exit(main())
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks its workers")
def test_pool_workers_run_without_the_collector():
    proc = subprocess.run(
        [sys.executable, "-c", _POOL_COLLECTOR_PROBE, "verify", "--i", "0..1", "--m", "0..3",
         "--checks", "parity", "--jobs", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert len(lines) == 8
    assert all(line.endswith("RESULT=FAIL WITNESS=enabled=False,worker=True") for line in lines)
