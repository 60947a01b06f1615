"""Outside-in tracer: spans around calls into torustrace's public functions.

Nothing inside the package changes.  ``Tracer.install`` wraps every public
function a torustrace module defines, plus a few listed methods, and puts the
wrapper everywhere the original object is bound: ``cli``, ``traces`` and
``criteria`` import by name, so patching the defining module alone would miss
most calls.  Methods are wrapped on their class; a class binding is never
replaced, which would break ``isinstance`` and ``__eq__``.

Each call appends a span [name, start, end, parent, command] to an in-memory
list, written out only when the run ends.  Self time is a span's duration
minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("harmonic", "symbols", "quantize", "besov", "criteria", "traces", "groups", "io", "cli", "sums")
METHODS = {"harmonic": {"FrequencyLattice": ("__init__", "index_of", "__contains__", "squared_norms", "brackets")}}

# Functions the per-layer metrics name.  A name missing from the code under
# test is recorded as absent and its metrics read 0.
LISTED = {
    "harmonic": ("forward_transform", "inverse_transform", "partial_inverse", "lp_norm", "FrequencyLattice"),
    "symbols": ("x_fourier_table", "difference_op", "x_derivative", "estimate_order", "fourier_decay_constant"),
    "quantize": ("operator_matrix", "eigenvalues", "eigen_residuals"),
    "besov": ("besov_norm", "dyadic_blocks", "block_norm_table"),
    "criteria": ("nuclear_quasinorm_bound", "rank_one_factor", "check_tt1", "check_t1", "check_t2"),
    "traces": ("nuclear_trace", "spectral_trace", "lidskii_compare", "tail_estimate"),
    "groups": ("enumerate_dual", "heat_trace", "bessel_trace", "heat_terms", "bessel_terms",
               "series_diagnostics", "partial_sum_convergence"),
    "io": ("load_sampled_symbol", "load_periodic_function"),
    "cli": ("main", "render_json", "render_csv", "emit"),
    "sums": ("fsum", "fsum_complex", "columnwise_fsum", "rowwise_fsum"),
}

HOOK_SPAN = "tracer.hooks"


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _size(obj) -> int:
    return int(np.size(obj))


# Counters taken at the same boundaries as the spans, from arguments and results.
def _count_matrix(counts, args, kwargs, result):
    side = int(np.shape(getattr(result, "entries", result))[0])
    counts["quantize.matrix_side_max"] = max(counts["quantize.matrix_side_max"], side)
    counts["quantize.matrix_bytes"] += side * side * 16


def _count_fourier_table(counts, args, kwargs, result):
    table = np.asarray(result)
    counts["symbols.x_fourier_table.rows"] += table.shape[0]
    counts["symbols.x_fourier_table.nonzero_rows"] += int(np.count_nonzero(np.any(table != 0, axis=1)))


def _count_forward(counts, args, kwargs, result):
    f, lattice = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "lattice")
    counts["harmonic.phase_elements"] += _size(f.values) * len(lattice)


def _count_inverse(counts, args, kwargs, result):
    c = _arg(args, kwargs, 0, "c")
    counts["harmonic.phase_elements"] += _size(result.values) * _size(c.coeffs)


def _count_partial(counts, args, kwargs, result):
    counts["harmonic.phase_elements"] += _size(result.values) * _size(_arg(args, kwargs, 1, "indices"))


def _count_dual(counts, args, kwargs, result):
    for attr in ("points", "lam", "labels"):
        if hasattr(result, attr):
            counts["groups.dual_points"] += len(getattr(result, attr))
            return


def _count_bytes(counts, args, kwargs, result):
    counts["io.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


HOOKS = {
    "quantize.operator_matrix": _count_matrix,
    "symbols.x_fourier_table": _count_fourier_table,
    "harmonic.forward_transform": _count_forward,
    "harmonic.inverse_transform": _count_inverse,
    "harmonic.partial_inverse": _count_partial,
    "groups.enumerate_dual": _count_dual,
    "io.load_sampled_symbol": _count_bytes,
    "io.load_periodic_function": _count_bytes,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.command: int | None = None
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []

    # -- installation -------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, tracer.command]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                # Counter cost is charged to a child span of the caller, not to the caller.
                start = perf_counter()
                hook(tracer.counts, args, kwargs, result)
                spans.append([HOOK_SPAN, start, perf_counter(), parent, tracer.command])
            return result

        return traced

    def install(self, package: str = "torustrace") -> None:
        modules = {name: sys.modules[f"{package}.{name}"] for name in MODULES if f"{package}.{name}" in sys.modules}
        replacements = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replacements[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    if cls is not None and meth in vars(cls):
                        setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", vars(cls)[meth]))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        for short, names in LISTED.items():
            mod = modules.get(short)
            for name in names:
                if mod is None or not hasattr(mod, name):
                    self.absent.append(f"{short}.{name}")

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: total self time and number of calls."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        return self_s, calls

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], round(a, 7), round(b, 7), p, c] for n, a, b, p, c in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "command"], "names": names, "spans": rows}, fh)


def layer_metrics(tracer: Tracer, import_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass (see README.md for what each should move)."""
    self_s, calls = tracer.self_times()
    counts = tracer.counts

    def s(name):
        return self_s.get(name, 0.0)

    def n(name):
        return float(calls.get(name, 0))

    out: dict[str, float] = {}
    for module in MODULES:
        out[f"{module}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(module + "."))
    for fn in ("operator_matrix", "eigenvalues"):
        out[f"quantize.{fn}.calls"] = n(f"quantize.{fn}")
        out[f"quantize.{fn}.self_s"] = s(f"quantize.{fn}")
    out["quantize.eigen_residuals.self_s"] = s("quantize.eigen_residuals")
    out["quantize.matrix_side_max"] = counts["quantize.matrix_side_max"]
    out["quantize.matrix_bytes"] = counts["quantize.matrix_bytes"]

    out["symbols.x_fourier_table.calls"] = n("symbols.x_fourier_table")
    out["symbols.x_fourier_table.self_s"] = s("symbols.x_fourier_table")
    rows = counts["symbols.x_fourier_table.rows"]
    out["symbols.x_fourier_table.nonzero_row_ratio"] = counts["symbols.x_fourier_table.nonzero_rows"] / rows if rows else 0.0
    for fn in ("difference_op", "x_derivative", "estimate_order", "fourier_decay_constant"):
        out[f"symbols.{fn}.self_s"] = s(f"symbols.{fn}")

    for fn in ("forward_transform", "inverse_transform", "partial_inverse"):
        out[f"harmonic.{fn}.calls"] = n(f"harmonic.{fn}")
        out[f"harmonic.{fn}.self_s"] = s(f"harmonic.{fn}")
    out["harmonic.lp_norm.self_s"] = s("harmonic.lp_norm")
    out["harmonic.FrequencyLattice.self_s"] = sum(v for k, v in self_s.items() if k.startswith("harmonic.FrequencyLattice."))
    out["harmonic.phase_elements"] = counts["harmonic.phase_elements"]

    for fn in ("besov_norm", "dyadic_blocks", "block_norm_table"):
        out[f"besov.{fn}.calls"] = n(f"besov.{fn}")
        out[f"besov.{fn}.self_s"] = s(f"besov.{fn}")

    out["criteria.nuclear_quasinorm_bound.self_s"] = s("criteria.nuclear_quasinorm_bound")
    out["criteria.rank_one_factor.calls"] = n("criteria.rank_one_factor")
    for fn in ("check_tt1", "check_t1", "check_t2"):
        out[f"criteria.{fn}.self_s"] = s(f"criteria.{fn}")

    for fn in ("nuclear_trace", "spectral_trace", "lidskii_compare", "tail_estimate"):
        out[f"traces.{fn}.self_s"] = s(f"traces.{fn}")

    out["groups.enumerate_dual.calls"] = n("groups.enumerate_dual")
    out["groups.enumerate_dual.self_s"] = s("groups.enumerate_dual")
    out["groups.dual_points"] = counts["groups.dual_points"]
    for fn in ("heat_trace", "bessel_trace", "heat_terms", "bessel_terms", "series_diagnostics",
               "partial_sum_convergence"):
        out[f"groups.{fn}.self_s"] = s(f"groups.{fn}")

    out["io.load_sampled_symbol.self_s"] = s("io.load_sampled_symbol")
    out["io.load_periodic_function.self_s"] = s("io.load_periodic_function")
    out["io.bytes_read"] = counts["io.bytes_read"]

    out["cli.import_s"] = import_s
    for fn in ("main", "render_json", "render_csv", "emit"):
        out[f"cli.{fn}.self_s"] = s(f"cli.{fn}")

    out["sums.calls"] = float(sum(v for k, v in calls.items() if k.startswith("sums.")))
    out["tracer.hooks_s"] = s(HOOK_SPAN)
    return out
