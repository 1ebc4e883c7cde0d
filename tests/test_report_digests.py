"""Every benchmark workload prints the report stream the benchmark recorded,
and a sweep under each mutation prints the witnesses recorded here.

perfbench/run.py holds the sha256 of each workload's text report; the
workloads are run here in process, so a change that alters one byte of a
report fails tier-1 and not only the benchmark.  The benchmark's runs all
pass, so the failing-run stream is pinned separately.
"""

import hashlib
import importlib.util
import io
import multiprocessing
import sys
from pathlib import Path

import pytest

from test_checks import MUTATIONS, mutated

from catb2 import cli
from catb2.checks import CHECK_NAMES
from catb2.poly import BiPoly
from catb2.rational import clear_caches

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


# `catb2 verify --m 0..8 --format json`: larger m than any workload, so it
# also covers the memo hit patterns that only the larger cells reach.
M_0_8_JSON_DIGEST = "d5d60a7919759026058baad684bd625aea38efb8d832c46d8af4c411e3a3801e"


def test_m_0_8_json_report_matches_the_recorded_digest():
    cfg = cli.SweepConfig(
        i_range=(0, 4), m_range=(0, 8), k_extra=2, checks=CHECK_NAMES, format="json", jobs=1
    )
    clear_caches()
    out = io.StringIO()
    assert cli.run_verify(cfg, out) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == M_0_8_JSON_DIGEST


# Each distinct perturbation of the mutation matrix once, then two more: one
# in the leading x^(6m+3) y^(2m+1) coefficient of the defining polynomial
# (saito), and one that fails only the y clause of parity.
SWEEP_MUTATIONS = [
    *dict.fromkeys(mutation[:3] for mutation in MUTATIONS.values()),
    ("defining_poly", None, lambda phi, m: phi + BiPoly.monomial(1, 6 * m + 3, 2 * m + 1)),
    ("deformed_poly", None, lambda f, i, m: f + BiPoly.monomial(1, 1, 1)),
]
MUTATION_RUNS_DIGEST = "382ce3f39683a3690de81440636b27b19023c02855208bec4dd3c508b75e6fee"


def _mutation_runs_digest(jobs: int) -> str:
    cfg = cli.SweepConfig(
        i_range=(0, 3), m_range=(0, 3), k_extra=3, checks=CHECK_NAMES, format="text", jobs=jobs
    )
    out = io.StringIO()
    for mutation in SWEEP_MUTATIONS:
        with mutated(*mutation):
            assert cli.run_verify(cfg, out) == 1
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_mutation_runs_report_the_recorded_witnesses():
    assert _mutation_runs_digest(jobs=1) == MUTATION_RUNS_DIGEST


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers see the patched constructions only when forked",
)
def test_mutation_runs_under_the_pool_report_the_recorded_witnesses(monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)  # a pool even on one CPU
    assert _mutation_runs_digest(jobs=2) == MUTATION_RUNS_DIGEST
