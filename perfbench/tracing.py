"""In-memory span tracer for the catb2 modules, installed from outside.

`Tracer.install` wraps the public functions and kernel methods of the five
modules (`cli`, `checks`, `constructions`, `poly`, `rational`).  Every call
through a wrapper records one span: name, start, end and the enclosing
span.  A wrapper replaces the original object in every namespace that holds
it, so `from .constructions import deformed_poly` aliases in `checks` and
`cli`, the package re-exports and `__rmul__ = __mul__` class aliases are all
traced.  Nothing under `src/` is edited; `uninstall` puts the originals back.

Spans are kept in flat arrays while the sweep runs and are turned into
per-layer metrics (and optionally written to a file) only at the end.
"""

from __future__ import annotations

import array
import functools
import gzip
import time
from collections import defaultdict

CHECKS = (
    "expansion",
    "ftilde-forms",
    "lemma1",
    "lemma2",
    "lemma3",
    "prop1",
    "prop2",
    "prop3",
    "theorem",
    "v-recurrence",
    "saito",
    "membership",
    "parity",
    "degree",
)
CONSTRUCTIONS = (
    "deformed_poly",
    "deformed_term",
    "defining_poly",
    "saito_determinant",
    "integral_poly",
    "poly_from_coeffs",
    "tail_combo",
    "tail_closed",
    "halfint_term",
    "halfint_tail",
    "halfint_combo",
    "halfint_closed",
    "telescope_cleared_sides",
    "basis_derivation",
)
MEMOS = (
    "integral_poly_coeff",
    "deformed_poly",
    "deformed_term",
    "halfint_term",
    "halfint_tail",
    "defining_poly",
)
# metric name -> (class name or None for a module function, attribute)
POLY_KERNELS = {
    "BiPoly.mul": ("BiPoly", "__mul__"),
    "BiPoly.add": ("BiPoly", "__add__"),
    "BiPoly.subst_affine": ("BiPoly", "subst_affine"),
    "BiPoly.subst_value": ("BiPoly", "subst_value"),
    "LinearForm.reduce_mod": ("LinearForm", "reduce_mod"),
    "UniPoly.mul": ("UniPoly", "__mul__"),
    "UniRatFunc.add": ("UniRatFunc", "__add__"),
    "UniRatFunc.mul": ("UniRatFunc", "__mul__"),
    "UniRatFunc.cross_diff": ("UniRatFunc", "cross_diff"),
    "ff_poly": (None, "ff_poly"),
    "ff_linear_poly": (None, "ff_linear_poly"),
    "ff_unipoly": (None, "ff_unipoly"),
    "ff_unirat": (None, "ff_unirat"),
}
RATIONAL = ("falling_factorial", "beta_half", "binomial")
CLI = ("run_verify", "build_tasks", "execute_task")
# Operation and size counters kept alongside the spans.
COUNTERS = (
    "poly.BiPoly.mul.term_products",
    "poly.UniPoly.mul.term_products",
    "poly.max_terms",
    "poly.max_coeff_bits",
)
# Results whose size feeds poly.max_terms and poly.max_coeff_bits.
SIZED = ("deformed_poly", "defining_poly", "saito_determinant")


def _check_function(name: str) -> str:
    return "check_" + name.replace("-", "_")


def span_names() -> list[str]:
    """Every span name the tracer records, in metric order."""
    return (
        [f"cli.{fn}" for fn in CLI]
        + [f"checks.{name}" for name in CHECKS]
        + [f"constructions.{fn}" for fn in CONSTRUCTIONS]
        + [f"poly.{name}" for name in POLY_KERNELS]
        + [f"rational.{fn}" for fn in RATIONAL]
    )


def _coeff_bits(poly) -> int:
    bits = (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.terms.values())
    return max(bits, default=0)


class Tracer:
    """Records spans around calls into catb2; one instance per traced run."""

    def __init__(self, package) -> None:
        self.package = package
        self.names = span_names()
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- install

    def _targets(self):
        """Yield (span name, holder object, attribute, observer)."""
        pkg = self.package
        for fn in CLI:
            yield f"cli.{fn}", pkg.cli, fn, None
        for name in CHECKS:
            yield f"checks.{name}", pkg.checks, _check_function(name), None
        for fn in CONSTRUCTIONS:
            observe = self._observe_size if fn in SIZED else None
            yield f"constructions.{fn}", pkg.constructions, fn, observe
        for name, (cls, attr) in POLY_KERNELS.items():
            holder = getattr(pkg.poly, cls) if cls else pkg.poly
            observe = None
            if name in ("BiPoly.mul", "UniPoly.mul"):
                observe = self._observe_product(f"poly.{name}.term_products")
            yield f"poly.{name}", holder, attr, observe
        for fn in RATIONAL:
            yield f"rational.{fn}", pkg.rational, fn, None

    def install(self) -> None:
        pkg = self.package
        holders = [pkg, pkg.cli, pkg.checks, pkg.constructions, pkg.poly, pkg.rational]
        holders += [pkg.poly.BiPoly, pkg.poly.UniPoly, pkg.poly.UniRatFunc, pkg.poly.LinearForm]
        for span, holder, attr, observe in self._targets():
            original = vars(holder)[attr]
            wrapper = self._wrap(original, self.names.index(span), observe)
            for target in holders:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapper)
                        self._patches.append((target, key, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def _wrap(self, fn, index: int, observe):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(index)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observe_product(self, key: str):
        counts = self.counts

        def observe(args, result) -> None:
            left, right = args
            counts[key] += len(left.terms) * (len(right.terms) if hasattr(right, "terms") else 1)

        return observe

    def _observe_size(self, args, result) -> None:
        counts = self.counts
        counts["poly.max_terms"] = max(counts["poly.max_terms"], len(result.terms))
        counts["poly.max_coeff_bits"] = max(counts["poly.max_coeff_bits"], _coeff_bits(result))

    # -------------------------------------------------------------- aggregate

    def __len__(self) -> int:
        return len(self.span_name)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s (duration minus child spans) and
        incl_s (duration of the outermost span of that name)."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        child = [0] * n
        for sid in range(n):
            parent = parents[sid]
            if parent >= 0:
                child[parent] += ends[sid] - starts[sid]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        incl_ns = [0] * len(self.names)
        for sid in range(n):
            index = names[sid]
            duration = ends[sid] - starts[sid]
            calls[index] += 1
            self_ns[index] += duration - child[sid]
            if not self._nested_in_same(sid):
                incl_ns[index] += duration
        return {
            name: {"calls": calls[k], "self_s": self_ns[k] / 1e9, "incl_s": incl_ns[k] / 1e9}
            for k, name in enumerate(self.names)
        }

    def _nested_in_same(self, sid: int) -> bool:
        """True if an enclosing span has the same name (counted once, outermost)."""
        index = self.span_name[sid]
        parent = self.span_parent[sid]
        while parent >= 0:
            if self.span_name[parent] == index:
                return True
            parent = self.span_parent[parent]
        return False

    def write(self, path) -> None:
        """Write every span as `id,parent,name,start_ns,end_ns` (gzip CSV)."""
        origin = self.span_start[0] if len(self.span_start) else 0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,parent,name,start_ns,end_ns\n")
            for sid in range(len(self.span_name)):
                out.write(
                    f"{sid},{self.span_parent[sid]},{self.names[self.span_name[sid]]},"
                    f"{self.span_start[sid] - origin},{self.span_end[sid] - origin}\n"
                )
