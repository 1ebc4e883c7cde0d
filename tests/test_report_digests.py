"""Every benchmark workload prints the report stream the benchmark recorded.

perfbench/run.py holds the sha256 of each workload's text report; the
workloads are run here in process, so a change that alters one byte of a
report fails tier-1 and not only the benchmark.
"""

import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from catb2 import cli
from catb2.constructions import clear_caches

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_run():
    sys.path.insert(0, str(PERFBENCH))  # run.py imports its siblings by name
    try:
        spec = importlib.util.spec_from_file_location("catb2_perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


RUN = _load_run()


@pytest.mark.parametrize("name", sorted(RUN.WORKLOADS))
def test_workload_report_matches_the_recorded_digest(name):
    workload = RUN.WORKLOADS[name]
    cfg = RUN.sweep_config(workload, seed=0, jobs=workload.jobs)
    clear_caches()
    out = io.StringIO()
    assert cli.run_verify(cfg, out) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == workload.digest
