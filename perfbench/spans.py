"""Spans and counters recorded around calls into altkit's public functions.

Nothing here edits altkit.  The recorder swaps module attributes (for
example ``altkit.fitml.fit_ml``, or the ``lifetime`` kernels that
``altkit.fitml`` binds by name) for wrappers that time the call and pass
it on, and puts the originals back afterwards.  Because ``fitml`` calls
``fit_ml``, ``design_matrix`` and the kernels through its own module
globals, nested calls (bootstrap -> fit_ml -> kernels) are seen too.

A span is ``[name, parent, op, start, end, info]``: ``parent`` is the
index of the enclosing span or None, ``op`` labels the benchmark
operation it belongs to, ``start``/``end`` come from ``time.perf_counter``
(CLOCK_MONOTONIC on Linux, so spans written by a child process line up
with the parent's), and ``info`` holds counts taken at the boundary.
Kernel calls are too many to keep one span each (about 2,000 per fit), so
they are added up into the ``kernels`` entry of the innermost open span:
``{kernel name: [calls, rows, seconds]}``.

Untraced runs wrap only ``fit_ml``, ``bootstrap_quantile`` and
``profile_lambda`` (a few hundred calls per operation, each tens of
milliseconds), which the end-to-end fit metrics need; traced runs wrap
every layer boundary listed in ``_TRACED`` and ``_KERNELS``.
"""

from __future__ import annotations

import importlib
from time import perf_counter

import numpy as np

# (module, attribute) -> span name.  The module is where the caller looks
# the name up, which is not always where it is defined.
_ALWAYS = {
    ("altkit.fitml", "fit_ml"): "fitml.fit_ml",
    ("altkit.fitml", "bootstrap_quantile"): "fitml.bootstrap_quantile",
    ("altkit.fitml", "profile_lambda"): "fitml.profile_lambda",
}
_TRACED = {
    ("altkit.fitml", "quantile_at_use"): "fitml.quantile_at_use",
    ("altkit.fitml", "design_matrix"): "formula.design_matrix",
    ("altkit.formula", "parse_model"): "formula.parse_model",
    ("altkit.io", "read_life_csv"): "io.read_life_csv",
    ("altkit.io", "write_life_csv"): "io.write_life_csv",
    ("altkit.datasets", "generate"): "datasets.generate",
    ("altkit.datasets", "design_matrix"): "formula.design_matrix",
}
# The names altkit.cli imported from the other modules.
_CLI_ALWAYS = {
    ("altkit.cli", "fit_ml"): "fitml.fit_ml",
    ("altkit.cli", "bootstrap_quantile"): "fitml.bootstrap_quantile",
    ("altkit.cli", "profile_lambda"): "fitml.profile_lambda",
}
_CLI_TRACED = {
    ("altkit.cli", "quantile_at_use"): "fitml.quantile_at_use",
    ("altkit.cli", "parse_model"): "formula.parse_model",
    ("altkit.cli", "read_life_csv"): "io.read_life_csv",
    ("altkit.cli", "write_life_csv"): "io.write_life_csv",
}
# lifetime kernels as altkit.fitml binds them; std_logsf runs once per
# likelihood evaluation and std_dlogsf once per score evaluation.
_KERNELS = ("std_logpdf", "std_logsf", "std_dlogpdf", "std_dlogsf", "std_quantile")


def _fit_info(info: dict, args, result) -> None:
    info["converged"] = bool(result.converged)
    info["iterations"] = int(result.iterations)


def _boot_info(info: dict, args, result) -> None:
    info["n_requested"] = int(result.n_requested)
    info["n_skipped"] = int(result.n_skipped)


def _profile_info(info: dict, args, result) -> None:
    info["points"] = len(result)
    info["nonconverged"] = sum(1 for pt in result if not pt.converged)


def _rows_returned(info: dict, args, result) -> None:
    info["rows"] = len(result)


def _rows_written(info: dict, args, result) -> None:
    info["rows"] = len(args[0])


_RESULT_INFO = {
    "fitml.fit_ml": _fit_info,
    "fitml.bootstrap_quantile": _boot_info,
    "fitml.profile_lambda": _profile_info,
    "io.read_life_csv": _rows_returned,
    "io.write_life_csv": _rows_written,
    "datasets.generate": _rows_returned,
}


class Recorder:
    """Collects spans in memory while ``op`` is set; idle when it is None."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans opened by the benchmark itself (operations, subprocesses) --

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, self.op, perf_counter(), None, {}])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> float:
        span = self.spans[sid]
        span[4] = perf_counter()
        if self._stack.pop() != sid:
            raise RuntimeError(f"span {span[0]} closed out of order")
        return span[4] - span[3]

    def current(self) -> int | None:
        """Index of the innermost open span while recording, else None."""
        return self._stack[-1] if self.op is not None and self._stack else None

    def adopt(self, child_spans: list[list], parent: int) -> None:
        """Append spans written by a child process under span ``parent``."""
        base = len(self.spans)
        for name, cparent, _op, start, end, info in child_spans:
            self.spans.append([
                name,
                parent if cparent is None else base + cparent,
                self.op, start, end, info,
            ])

    # -- wrappers installed on altkit's modules --

    def install(self, cli: bool = False) -> None:
        targets = dict(_ALWAYS)
        if self.traced:
            targets.update(_TRACED)
        if cli:
            targets.update(_CLI_ALWAYS)
            if self.traced:
                targets.update(_CLI_TRACED)
        for (modname, attr), name in targets.items():
            module = importlib.import_module(modname)
            self._swap(module, attr, self._span_wrapper(name, getattr(module, attr)))
        if self.traced:
            fitml = importlib.import_module("altkit.fitml")
            for attr in _KERNELS:
                self._swap(fitml, attr,
                           self._kernel_wrapper("lifetime." + attr, getattr(fitml, attr)))

    def restore(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _swap(self, module, attr: str, wrapper) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _span_wrapper(self, name: str, fn):
        on_result = _RESULT_INFO.get(name)

        def wrapped(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            sid = self.begin(name)
            info = self.spans[sid][5]
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                # NonConvergenceError carries the best-so-far fit.
                best = getattr(err, "result", None)
                if on_result is _fit_info and best is not None:
                    _fit_info(info, args, best)
                info["error"] = type(err).__name__
                raise
            finally:
                self.end(sid)
            if on_result is not None:
                on_result(info, args, result)
            return result

        return wrapped

    def _kernel_wrapper(self, name: str, fn):
        def wrapped(z, family):
            if self.op is None or not self._stack:
                return fn(z, family)
            t0 = perf_counter()
            out = fn(z, family)
            elapsed = perf_counter() - t0
            kernels = self.spans[self._stack[-1]][5].setdefault("kernels", {})
            entry = kernels.setdefault(name, [0, 0, 0.0])
            entry[0] += 1
            entry[1] += int(np.size(z))
            entry[2] += elapsed
            return out

        return wrapped
