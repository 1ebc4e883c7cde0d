"""The span tracer in perfbench/tracing.py can find everything it wraps.

The tracer looks each target up as `vars(holder)[attr]` and replaces that
object wherever it appears, so a traced method must be defined in its own
class (not inherited) and must not be shared with another class.  A traced
`tiny` sweep must call every wrapper and print the untraced report.
"""

from test_report_digests import RUN

import catb2
import catb2.cli

tracing = RUN.tracing  # the module perfbench/run.py traces with
CLASSES = ("BiPoly", "UniPoly", "UniRatFunc", "LinearForm")


def test_every_target_is_in_its_holders_namespace():
    targets = [(catb2.cli, fn) for fn in tracing.CLI]
    targets += [(catb2.checks, tracing._check_function(name)) for name in tracing.CHECKS]
    targets += [(catb2.constructions, fn) for fn in tracing.CONSTRUCTIONS + tracing.MEMOS]
    for cls, attr in tracing.POLY_KERNELS.values():
        targets.append((getattr(catb2.poly, cls) if cls else catb2.poly, attr))
    targets += [(catb2.rational, fn) for fn in tracing.RATIONAL]
    missing = [f"{getattr(h, '__name__', h)}.{attr}" for h, attr in targets if attr not in vars(h)]
    assert missing == []
    memos = {fn.__wrapped__.__name__ for fn in catb2.constructions._CACHES}
    assert set(tracing.MEMOS) <= memos


def test_traced_checks_follow_the_registry_order():
    assert tracing.CHECKS == catb2.checks.CHECK_NAMES


def test_no_poly_kernel_sits_on_two_classes():
    for cls, attr in tracing.POLY_KERNELS.values():
        if cls is None:
            continue
        fn = vars(getattr(catb2.poly, cls))[attr]
        owners = [
            name
            for name in CLASSES
            if any(value is fn for value in vars(getattr(catb2.poly, name)).values())
        ]
        assert owners == [cls], (cls, attr)


def test_every_memo_exposes_what_the_benchmark_reads():
    # perfbench/run.py reads cache_info() and __wrapped__.__name__ of every
    # memo after a traced sweep, and clear_caches() calls cache_clear().
    for fn in catb2.constructions._CACHES:
        assert callable(fn.cache_info) and callable(fn.cache_clear)
        assert isinstance(fn.__wrapped__.__name__, str)
    memos = [fn.__wrapped__.__name__ for fn in catb2.constructions._CACHES]
    assert len(set(memos)) == len(memos)  # the benchmark keys them by name
    assert "_halfint_y_factor" in memos


def test_tiny_grid_calls_every_span_and_traces_the_same_stream():
    # perfbench's own test of this is outside tier-1; without this one, a src
    # change that stops calling a traced name passes tier-1 and breaks it.
    catb2 = RUN._import_catb2()
    tiny = RUN.WORKLOADS["tiny"]
    plain = RUN._sweep_in_process(catb2, tiny, 0)[:2]
    tracer = tracing.Tracer(catb2)
    tracer.install()
    try:
        traced = RUN._sweep_in_process(catb2, tiny, 0)[:2]
    finally:
        tracer.uninstall()
    assert traced == plain == (plain[0], 0)
    calls = {name: span["calls"] for name, span in tracer.summary().items()}
    assert list(calls) == tracing.span_names()
    assert [name for name, n in calls.items() if n == 0] == []
