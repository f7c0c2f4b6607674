"""Span tracer for the traced run: wraps the layers' public functions from
outside the library and derives per-layer metrics from the spans.

Layers are the modules of ``symfusion``.  Each listed name is replaced in
the module that defines it and in every public ``symfusion.*`` namespace
that holds the same object (``cli`` imports most names directly), so every
call site sees the wrapper.  Kernels are resolved through
``symfusion.kernels`` at call time, so wrapping that module is enough.  The
per-entry ``zpoly_*`` kernels and ``exactnum`` arithmetic are not wrapped:
a span per scalar operation would swamp the run; their cost lands in the
self time of the caller (``kernels.ga_mul`` for ``RationalFunction``
arithmetic, ``fusion.f_operator_general`` for the zpoly product).

A name that no longer exists is skipped and listed in ``absent``; its
metrics then read 0 calls and 0 s.  README.md lists which end-to-end
metric each per-layer metric should move.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

CHECKS = ("check_yang_baxter_family", "check_unitarity", "check_symmetry_flip",
          "check_rtt", "check_intertwiner_E", "check_intertwiner_F",
          "check_reflection_image", "check_image_coincidence",
          "check_eval_consistency_E", "check_eval_consistency_F", "check_lemma44")


def _nnz(rows) -> int:
    return sum(len(r) for r in rows.values())


def _madds(arows, brows) -> int:
    """Multiply-adds of a sparse product, computed from the operands."""
    return sum(len(brows.get(k, ())) for arow in arows.values() for k in arow)


# name -> function(args, result) giving the size stats summed over calls
SIZES = {
    "symalg.fusion_e_skew": lambda a, r: {"terms_out": len(r.terms)},
    "kernels.ga_mul": lambda a, r: {"terms_in": len(a[0]) + len(a[1])},
    "fusion.f_operator_general": lambda a, r: {"nnz_out": r.nnz(),
                                               "factors": a[0].n * (a[0].n - 1)},
    "fusion.e_operator": lambda a, r: {"nnz_out": r.nnz()},
    "tensorop.act": lambda a, r: {"terms_in": len(a[0].terms), "nnz_out": r.nnz()},
    "tensorop.rank": lambda a, r: {"rows": len(a[0].rows), "cols": a[0].dim},
    "kernels.frac_rref": lambda a, r: {"rows": len(a[0]), "cols": a[1]},
    "kernels.sparse_mm": lambda a, r: {"nnz_in": _nnz(a[0]) + _nnz(a[1]),
                                       "nnz_out": _nnz(r), "madds": _madds(a[0], a[1])},
    **{f"rmatrix.{c}": (lambda a, r: {"samples": len(r.samples)}) for c in CHECKS},
}

# names whose calls are checked for an argument already seen in the process
REPEATS = {"fusion.f_operator_general", "fusion.e_operator"}

TARGETS = {
    "shapes": ("standard_tableaux", "count_semistandard"),
    "symalg": ("fusion_e_skew", "e_tableau", "e_skew_extract", "GroupAlgebraElement.__mul__"),
    "kernels": ("ga_mul", "sparse_mm", "bareiss_rank", "frac_rref"),
    "tensorop": ("act", "perm_op", "q_op", "rank", "traceless_basis", "image_basis",
                 "kernel_basis", "intersect", "SparseOperator.__mul__"),
    "fusion": ("f_operator_general", "e_operator", "verify_prop33", "verify_corollary32",
               "verify_scaled_idempotent", "verify_theta_factorization"),
    "rmatrix": CHECKS,
}


class Tracer:
    """Records spans (name, start, end, parent, op id) per thread in memory."""

    def __init__(self):
        self._local = threading.local()
        self._threads: list[list] = []  # one span list per thread
        self._lock = threading.Lock()
        self.sizes: dict[str, dict[str, int]] = {}
        self.repeats: dict[str, int] = {}
        self._seen: dict[str, set] = {}
        self._cached: dict[str, tuple] = {}  # name -> (cached function, hits at install)
        self.absent: list[str] = []

    # -- recording -----------------------------------------------------------

    def _state(self):
        loc = self._local
        if not hasattr(loc, "spans"):
            loc.spans, loc.stack, loc.op = [], [], None
            with self._lock:
                self._threads.append(loc.spans)
        return loc

    def set_op(self, op) -> None:
        self._state().op = op

    def wrap(self, name: str, fn):
        sizer = SIZES.get(name)
        seen = self._seen.setdefault(name, set()) if name in REPEATS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            loc = self._state()
            spans, stack = loc.spans, loc.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, loc.op)
            try:  # a changed signature loses the sizes, never the op
                if sizer is not None:
                    stats = self.sizes.setdefault(name, {})
                    for key, value in sizer(args, result).items():
                        stats[key] = stats.get(key, 0) + value
                if seen is not None:
                    key = (args, tuple(sorted(kwargs.items())))
                    if key in seen:
                        self.repeats[name] = self.repeats.get(name, 0) + 1
                    seen.add(key)
            except (AttributeError, IndexError, TypeError):
                pass
            return result
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target name in every public symfusion namespace."""
        modules = {}
        for module in (*TARGETS, "cli"):  # import all first, so every alias exists
            try:
                modules[module] = importlib.import_module(f"symfusion.{module}")
            except ImportError:
                pass
        for module, names in TARGETS.items():
            mod = modules.get(module)
            if mod is None:
                self.absent.extend(f"{module}.{n}" for n in names)
                continue
            for attr in names:
                if "." in attr:
                    self._wrap_method(mod, module, attr)
                else:
                    self._wrap_function(mod, module, attr)
        self._wrap_suites()

    def _wrap_function(self, mod, module: str, attr: str) -> None:
        name = f"{module}.{attr}"
        orig = getattr(mod, attr, None)
        if orig is None:
            self.absent.append(name)
            return
        if hasattr(orig, "cache_info"):
            self._cached[name] = (orig, orig.cache_info().hits)
        wrapper = self.wrap(name, orig)
        for modname, m in list(sys.modules.items()):
            if modname.split(".")[0] != "symfusion" or modname.split(".")[-1].startswith("_"):
                continue
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapper)

    def _wrap_method(self, mod, module: str, attr: str) -> None:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name, None)
        orig = cls.__dict__.get(meth) if cls is not None else None
        if orig is None:
            self.absent.append(f"{module}.{attr}")
            return
        setattr(cls, meth, self.wrap(f"{module}.{attr}", orig))

    def _wrap_suites(self) -> None:
        suites = getattr(sys.modules.get("symfusion.cli"), "SUITES", None)
        if not isinstance(suites, dict):
            self.absent.append("cli.SUITES")
            return
        for suite, fn in list(suites.items()):
            traced = self.wrap(f"cli.suite.{suite}", fn)

            def run_suite(*args, _suite=suite, _traced=traced, **kwargs):
                # spans of one suite share its name as their op id
                self.set_op(_suite)
                return _traced(*args, **kwargs)
            suites[suite] = run_suite

    # -- results -------------------------------------------------------------

    def spans(self):
        return [list(spans) for spans in self._threads]

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics: calls, self_s (span minus child spans), sizes,
        repeat_calls, cache_hits, suite seconds and their sum over wall_s."""
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        for spans in self._threads:
            child = [0.0] * len(spans)
            for name, t0, t1, parent, _ in spans:
                if parent >= 0:
                    child[parent] += t1 - t0
            for (name, t0, t1, _, _), c in zip(spans, child):
                calls[name] = calls.get(name, 0) + 1
                total[name] = total.get(name, 0.0) + (t1 - t0)
                self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - c
        out: dict[str, float] = {}
        for name, n in calls.items():
            out[f"{name}.calls"] = n
            out[f"{name}.self_s"] = self_s[name]
        for name, stats in self.sizes.items():
            for key, value in stats.items():
                out[f"{name}.{key}"] = value
        for name in REPEATS:
            out[f"{name}.repeat_calls"] = self.repeats.get(name, 0)
        for name, (fn, hits0) in self._cached.items():
            out[f"{name}.cache_hits"] = fn.cache_info().hits - hits0
        suites = {name: t for name, t in total.items() if name.startswith("cli.suite.")}
        for name, t in suites.items():
            out[f"{name}.s"] = t
        suite_s = sum(suites.values())
        out["cli.suite_sum_over_wall"] = suite_s / wall_s if wall_s > 0 else 0.0
        return out
