"""Every benchmark workload prints the report stream the benchmark recorded,
and a sweep under each mutation prints the verdicts and witnesses recorded
here.

perfbench/run.py holds the sha256 of each workload's text report; the
workloads are run here in process, so a change that alters one byte of a
report fails tier-1 and not only the benchmark.  The benchmark's runs all
pass, so the failing-run stream is pinned separately, twice: whole, and with
every witness cut off.  A change that rewrites a witness moves only the
first pin; one that flips a verdict moves both.
"""

import hashlib
import importlib.util
import io
import os
import re
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
MUTATION_RUNS_DIGEST = "6e0d980ed538bb8b8a4ce2a9286ef5e50bb768eb912d4e2c000071aed3d7fae5"
# The same stream with each line's " WITNESS=..." tail removed, lines joined by "\n".
MUTATION_VERDICTS_DIGEST = "c908469cda410df088d54d6231e3f3c5d8cde9922fb47482b1203ea93d39b9b1"


def _mutation_runs(jobs: int) -> str:
    cfg = cli.SweepConfig(
        i_range=(0, 3), m_range=(0, 3), k_extra=3, checks=CHECK_NAMES, format="text", jobs=jobs
    )
    out = io.StringIO()
    for mutation in SWEEP_MUTATIONS:
        with mutated(*mutation):
            assert cli.run_verify(cfg, out) == 1
    return out.getvalue()


def _assert_recorded(stream: str) -> None:
    # verdicts first: a flipped verdict fails here, a rewritten witness below
    verdicts = "\n".join(re.sub(r" WITNESS=.*", "", line) for line in stream.splitlines())
    assert hashlib.sha256(verdicts.encode()).hexdigest() == MUTATION_VERDICTS_DIGEST
    assert hashlib.sha256(stream.encode()).hexdigest() == MUTATION_RUNS_DIGEST


def test_mutation_runs_report_the_recorded_witnesses():
    _assert_recorded(_mutation_runs(jobs=1))


@pytest.mark.skipif(
    not hasattr(os, "fork"),
    reason="pool workers see the patched constructions only when forked",
)
def test_mutation_runs_under_the_pool_report_the_recorded_witnesses(monkeypatch):
    monkeypatch.setattr(cli, "_cpus", lambda: [None, None])  # a pool even on one CPU
    _assert_recorded(_mutation_runs(jobs=2))
