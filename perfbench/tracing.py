"""Spans and counts recorded from outside the program.

The tracer replaces public functions of the renormcert modules with
wrappers that record a span (name, start, end, parent) per call, and the
methods of ``RoundingContext`` with wrappers that only count calls.  It
patches every module attribute bound to the original object, so aliases
such as ``pipeline._certify`` are traced too, and restores them all on
exit.  Nothing is changed in the program's source.

Spans inside process-pool workers are not visible here: a forked worker
inherits the wrappers but its records die with it.  The trace reports the
pool's waiting time in the parent and the size of the state it ships.
"""

from __future__ import annotations

import concurrent.futures
import functools
import pickle
import sys
import time
from collections import Counter

PACKAGE = "renormcert"

#: module -> traced public names (dotted for methods)
TRACED = {
    "approx": ("approx_fixed_point", "approx_eigenpair", "approx_jacobian",
               "build_lambda", "mat_inv"),
    "balls": ("mul", "compose", "compose_derivative", "power_table",
              "PowerTable.compose", "evaluate"),
    "operators": ("precompute_shared", "OperatorTables.build",
                  "OperatorTables.dt_basis_image", "OperatorTables.l_basis_image",
                  "OperatorTables.dt_apply", "OperatorTables.l_apply",
                  "check_domain_extension", "extend_recursive"),
    "contraction": ("verify_lambda_invertible", "apply_lambda", "bound_epsilon",
                    "bound_kappa_columns", "bound_kappa_tail", "certify"),
    "pipeline": ("run_pipeline", "emit_plot_covering"),
}

_SCALAR_OPS = ("add_dn", "add_up", "sub_dn", "sub_up", "mul_dn", "mul_up",
               "div_dn", "div_up", "round_nearest", "sqrt_up", "sqrt_dn",
               "pow_up", "pow_dn")


def op_family(method: str) -> str | None:
    """Counter a RoundingContext method belongs to, or None if uncounted."""
    if method in _SCALAR_OPS:
        return "scalar_ops"
    if method.startswith("_"):
        return None
    if method.startswith("i"):
        return "interval_ops"
    if method.startswith("r") or method == "mag1":
        return "rect_ops"
    return None


def self_times(spans) -> dict[str, float]:
    """Self time per span name: duration minus the time its children cover.

    ``spans`` is a sequence of (name, start, end, parent) where parent is
    the index of the enclosing span or -1.  Children of one span never
    overlap (calls are sequential), so their durations add up.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out


class Tracer:
    """Context manager that installs the wrappers for one traced section."""

    def __init__(self):
        self.spans: list = []
        self.calls: Counter = Counter()
        self.ops: Counter = Counter()
        self.pool_bytes = 0
        self._stack: list[int] = []
        self._undo: list = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, calls, clock = self.spans, self._stack, self.calls, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            calls[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
        return traced

    def _counted(self, family: str, fn):
        ops = self.ops

        @functools.wraps(fn)
        def counted(*args):
            ops[family] += 1
            return fn(*args)
        return counted

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- install / remove -----------------------------------------------------

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _install(self):
        pkg = PACKAGE
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == pkg or name.startswith(pkg + "."))]
        for mod_name, names in TRACED.items():
            module = sys.modules[f"{pkg}.{mod_name}"]
            for dotted in names:
                label = f"{mod_name}.{dotted}"
                if "." in dotted:
                    cls_name, meth = dotted.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        self._set(cls, meth, classmethod(self._span(label, raw.__func__)))
                    else:
                        self._set(cls, meth, self._span(label, raw))
                    continue
                original = getattr(module, dotted)
                wrapper = self._span(label, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapper)
        rc = sys.modules[f"{pkg}.rounding"].RoundingContext
        for meth, raw in list(vars(rc).items()):
            family = op_family(meth)
            if family is not None and callable(raw):
                self._set(rc, meth, self._counted(family, raw))
        # _pool_class reads the attribute first, which creates it: the
        # package defines it lazily
        self._set(concurrent.futures, "ProcessPoolExecutor", self._pool_class())

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False

    def _pool_class(self):
        tracer = self

        class MeasuredPool(concurrent.futures.ProcessPoolExecutor):
            """Adds the pickled size of the state each worker receives."""

            def __init__(self, *args, initargs=(), **kwargs):
                tracer.pool_bytes += len(pickle.dumps(tuple(initargs[:2])))
                super().__init__(*args, initargs=initargs, **kwargs)
        return MeasuredPool

    # -- results --------------------------------------------------------------

    def finished_spans(self) -> list:
        if self._stack or any(s is None for s in self.spans):
            raise RuntimeError("trace read while spans are still open")
        return self.spans
