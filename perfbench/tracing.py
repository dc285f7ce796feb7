"""Span tracing for the benchmark's traced run.

The program is traced from outside: while a :class:`Tracer` is installed,
every public function of the alphadiv modules (and ``PositiveOperator``
construction and ``numpy.linalg.eigh``) is replaced by a wrapper that records
a span, by rebinding the module attributes that hold it.  Uninstalling puts
the original objects back.  No source file of the program is touched.

A span is (name, start, end, parent).  Spans are kept in memory in compact
arrays and written out once, at the end of the run.  A layer's self time is
its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

MODULES = ("cli", "suites", "recovery", "quantum", "classical", "numkit")

NUMERIC_Q = "quantum.canonical_divergence_numeric_q"

# Entry points that take a contrast function, with the position and keyword
# of that argument.  The outermost one open wraps the contrast in a counter.
CONTRAST_ARG = {
    "recovery.recover_structure": (0, "divergence"),
    "recovery.duality_defect": (1, "divergence"),
    "recovery.curvature_max": (0, "divergence"),
    "numkit.mixed_partials": (0, "f"),
}


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self._child_s = []
        self._open_names = Counter()
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)

    # -- spans --------------------------------------------------------------

    def open(self, name):
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._child_s.append(0.0)
        self._open_names[name] += 1
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx, name):
        end = time.perf_counter()
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        self._stack.pop()
        child = self._child_s.pop()
        if self._child_s:
            self._child_s[-1] += duration
        self._open_names[name] -= 1
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if not self._open_names[name]:
            # inclusive time counts outermost spans only, so recursion
            # through the same layer is not counted twice
            self.total_s[name] += duration
        return duration

    def inside(self, name):
        return self._open_names[name] > 0

    def count_signature(self):
        """Every call and work count of the pass; equal passes do equal work."""
        return (
            tuple(sorted(self.calls.items())),
            tuple(sorted((k, v) for k, v in self.counters.items() if not k.endswith("_s"))),
        )

    def write(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def _plain(tracer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx, name)

    return traced


def _quadrature_sum(tracer, name, fn):
    @functools.wraps(fn)
    def traced(rule, *args, **kwargs):
        tracer.counters["numkit.quadrature_sum.nodes"] += len(rule)
        idx = tracer.open(name)
        try:
            return fn(rule, *args, **kwargs)
        finally:
            tracer.close(idx, name)

    return traced


def _divided_differences(tracer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = tracer.close(idx, name)
            if tracer.inside(NUMERIC_Q):
                tracer.counters[NUMERIC_Q + ".divided_differences_s"] += duration

    return traced


def _eigh(tracer, fn):
    name = "numpy.linalg.eigh"

    @functools.wraps(fn)
    def traced(a, *args, **kwargs):
        shape = np.shape(a)
        matrices = int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1
        idx = tracer.open(name)
        try:
            return fn(a, *args, **kwargs)
        finally:
            duration = tracer.close(idx, name)
            if tracer.inside(NUMERIC_Q):
                tracer.counters[NUMERIC_Q + ".eigh_s"] += duration
                tracer.counters[NUMERIC_Q + ".eigh_matrices"] += matrices
                tracer.counters[NUMERIC_Q + ".eigh_n3_computed"] += matrices * shape[-1] ** 3

    return traced


def _contrast_entry(tracer, name, fn):
    position, keyword = CONTRAST_ARG[name]

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        outermost = not any(tracer.inside(entry) for entry in CONTRAST_ARG)
        seen = set()
        evals = 0
        if outermost:
            inner = kwargs[keyword] if keyword in kwargs else args[position]

            def counted(x, y):
                nonlocal evals
                evals += 1
                seen.add((np.asarray(x).tobytes(), np.asarray(y).tobytes()))
                return inner(x, y)

            if keyword in kwargs:
                kwargs = {**kwargs, keyword: counted}
            else:
                args = args[:position] + (counted,) + args[position + 1:]
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx, name)
            if outermost:
                tracer.counters["recovery.contrast_evals"] += evals
                tracer.counters["recovery.contrast_unique"] += len(seen)

    return traced


_SPECIAL = {
    "numkit.quadrature_sum": _quadrature_sum,
    "numkit.power_divided_differences": _divided_differences,
    **{name: _contrast_entry for name in CONTRAST_ARG},
}


class installed:
    """Context manager that installs a tracer's wrappers and removes them."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._undo = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        modules = {short: importlib.import_module(f"alphadiv.{short}") for short in MODULES}
        holders = [sys.modules["alphadiv"], *modules.values()]
        for short, module in modules.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                    continue
                name = f"{short}.{attr}"
                wrapper = _SPECIAL.get(name, _plain)(self.tracer, name, fn)
                for holder in holders:
                    for key in [k for k, v in vars(holder).items() if v is fn]:
                        self._set(holder, key, wrapper)
        operator = modules["quantum"].PositiveOperator
        self._set(
            operator,
            "__init__",
            _plain(self.tracer, "quantum.PositiveOperator", operator.__init__),
        )
        self._set(np.linalg, "eigh", _eigh(self.tracer, np.linalg.eigh))
        return self.tracer

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False


# ---------------------------------------------------------------------------
# Layer metrics
# ---------------------------------------------------------------------------

_TIMED = (
    "classical.canonical_divergence_numeric",
    "classical.alpha_divergence_closed",
    "recovery.recover_structure",
    "recovery.duality_defect",
    "recovery.curvature_max",
    "numkit.mixed_partials",
    "quantum.PositiveOperator",
    "quantum.operator_from_chart",
    "numkit.hermitian_eig",
    "quantum.quantum_alpha_divergence_closed",
    "cli.load_document",
)


def layer_metrics(tracer):
    """Per-layer figures of one traced pass, as {name: (value, unit)}."""
    c = tracer.counters
    out = {
        "numkit.quadrature_sum.calls": (tracer.calls["numkit.quadrature_sum"], "count"),
        "numkit.quadrature_sum.nodes": (int(c["numkit.quadrature_sum.nodes"]), "count"),
        NUMERIC_Q + ".calls": (tracer.calls[NUMERIC_Q], "count"),
        NUMERIC_Q + ".self_s": (tracer.self_s[NUMERIC_Q], "s"),
        NUMERIC_Q + ".eigh_s": (c[NUMERIC_Q + ".eigh_s"], "s"),
        NUMERIC_Q + ".eigh_matrices": (int(c[NUMERIC_Q + ".eigh_matrices"]), "count"),
        NUMERIC_Q + ".eigh_n3_computed": (int(c[NUMERIC_Q + ".eigh_n3_computed"]), "count"),
        NUMERIC_Q + ".divided_differences_s": (c[NUMERIC_Q + ".divided_differences_s"], "s"),
        "recovery.contrast_evals": (int(c["recovery.contrast_evals"]), "count"),
        "recovery.contrast_unique_ratio": (
            c["recovery.contrast_unique"] / c["recovery.contrast_evals"]
            if c["recovery.contrast_evals"]
            else 0.0,
            "ratio",
        ),
        "cli.main.calls": (tracer.calls["cli.main"], "count"),
        "cli.main.self_s": (tracer.self_s["cli.main"], "s"),
    }
    for name in _TIMED:
        out[name + ".calls"] = (tracer.calls[name], "count")
        out[name + ".s"] = (tracer.total_s[name], "s")
    return out


# ---------------------------------------------------------------------------
# Known counts
# ---------------------------------------------------------------------------

def check_known_counts():
    """Run the wrappers on calls whose work is known; return the mismatches.

    recover_structure at three coordinates evaluates the contrast
    9*4**2 + 2*27*4**3 + 1 = 3601 times; its "ppq" block alone evaluates it
    27*4**3 = 1728 times at 876 distinct points; the default quadrature rule
    has 64 nodes and decomposes 64 matrices per quantum quadrature.
    """
    from alphadiv import classical, numkit, quantum, recovery

    p = np.array([1.5, 0.8, 2.2])
    q = np.array([0.7, 1.9, 1.1])
    rho1 = quantum.PositiveOperator(np.diag(p))
    rho2 = quantum.PositiveOperator(np.diag(q))

    def contrast(x, y):
        return classical.alpha_divergence_closed(x, y, 0.5)

    cases = [
        (lambda: recovery.recover_structure(contrast, p), "recovery.contrast_evals", 3601),
        (
            lambda: numkit.mixed_partials(contrast, p, p, "ppq", numkit.FDConfig(1e-2, 4)),
            "recovery.contrast_evals",
            1728,
        ),
        (
            lambda: numkit.mixed_partials(contrast, p, p, "ppq", numkit.FDConfig(1e-2, 4)),
            "recovery.contrast_unique",
            876,
        ),
        (
            lambda: classical.canonical_divergence_numeric(p, q, 0.3),
            "numkit.quadrature_sum.nodes",
            64,
        ),
        (
            lambda: quantum.canonical_divergence_numeric_q(rho1, rho2, 0.3),
            NUMERIC_Q + ".eigh_matrices",
            64,
        ),
    ]
    problems = []
    for run, counter, expected in cases:
        tracer = Tracer()
        with installed(tracer):
            run()
        got = tracer.counters[counter]
        if got != expected:
            problems.append(f"{counter}: expected {expected}, counted {got:g}")
    return problems
