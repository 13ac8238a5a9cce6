"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of the ``awsym`` modules from the
outside: each wrapper replaces the module attribute and every binding of
the same object in any loaded ``awsym`` module (``pairing.desmooth_complex``,
``heat.fourier``, the package re-exports, ...), so nested library calls
produce nested spans.  Spans stay in memory; :func:`layer_metrics` turns
them into the per-layer metrics and :meth:`Recorder.dump` writes them out
at the end of a run.

Self time of a span is its duration minus the footprint of its child
spans, where a child's footprint includes the wrapper's own bookkeeping,
so tracer cost never lands in a parent's self time.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np


def _fft_bytes(args, kwargs, result):
    return {"fft_bytes": args[0].values.nbytes}


def _kernel_out(args, kwargs, result):
    return {"out_bytes": result.matrix.nbytes}


def _assemble_out(args, kwargs, result):
    mags = np.abs(result.matrix)
    useful = int(np.count_nonzero(mags > 1e-16 * float(mags.max())))
    return {"out_bytes": result.matrix.nbytes, "band_entries": useful,
            "entries": mags.size}


def _slab_evals(args, kwargs, result):
    # terms x factors x y nodes; y_nodes is positional index 3 or a keyword
    u = args[0]
    y_nodes = kwargs.get("y_nodes", args[3] if len(args) > 3 else 64)
    return {"slab_evals": sum(len(term) for term in u.terms) * y_nodes}


def _flagged(args, kwargs, result):
    return {"flagged": int(bool(result.flags))}


def _loaded_bytes(args, kwargs, result):
    arr = result.matrix if hasattr(result, "matrix") else result.values
    return {"bytes_read": arr.nbytes}


def _saved_bytes(args, kwargs, result):
    obj = args[0]
    arr = obj.matrix if hasattr(obj, "matrix") else obj.values
    return {"bytes_written": arr.nbytes}


def _hashed_bytes(args, kwargs, result):
    return {"bytes_read": os.path.getsize(args[0])}


# (module, attribute path, layer name, counters computed after the call)
TARGETS = [
    ("core", "fourier", "core.fourier", _fft_bytes),
    ("core", "inverse_fourier", "core.inverse_fourier", _fft_bytes),
    ("core", "sample", "core.sample", None),
    ("core", "inner", "core.inner", None),
    ("gaussians", "GaussFactor.shifted_values",
     "gaussians.GaussFactor.shifted_values", None),
    ("gaussians", "AnalyticGaussianSum.eval_axes", "gaussians.eval_axes", None),
    ("gaussians", "sum_derivative_values",
     "gaussians.sum_derivative_values", None),
    ("gaussians", "gaussian_derivative_values",
     "gaussians.gaussian_derivative_values", None),
    ("quantize", "assemble_antiwick", "quantize.assemble_antiwick",
     _assemble_out),
    ("quantize", "weyl_from_kernel", "quantize.weyl_from_kernel", None),
    ("quantize", "kernel_from_weyl", "quantize.kernel_from_weyl", _kernel_out),
    ("quantize", "apply_operator", "quantize.apply_operator", None),
    ("quantize", "kernel_from_coherent", "quantize.kernel_from_coherent", None),
    ("heat", "smooth", "heat.smooth", None),
    ("heat", "desmooth_fourier", "heat.desmooth_fourier", None),
    ("heat", "desmooth_complex", "heat.desmooth_complex", _slab_evals),
    ("gsnorm", "hermite_bound_margin", "gsnorm.hermite_bound_margin", None),
    ("gsnorm", "hermite_l2_log_margin", "gsnorm.hermite_l2_log_margin", None),
    ("gsnorm", "gs_constant", "gsnorm.gs_constant", None),
    ("gsnorm", "gevrey_order_estimate", "gsnorm.gevrey_order_estimate", None),
    ("gsnorm", "holo_bound_check", "gsnorm.holo_bound_check", None),
    ("gsnorm", "e_space_norm", "gsnorm.e_space_norm", None),
    ("pairing", "antiwick_pair", "pairing.antiwick_pair", _flagged),
    ("pairing", "weyl_symbol", "pairing.weyl_symbol", None),
    ("pairing", "antiwick_pair_reference", "pairing.antiwick_pair_reference",
     None),
    ("fieldio", "load_field", "fieldio.load_field", _loaded_bytes),
    ("fieldio", "save_field", "fieldio.save_field", _saved_bytes),
    ("fieldio", "load_kernel", "fieldio.load_kernel", _loaded_bytes),
    ("fieldio", "save_kernel", "fieldio.save_kernel", _saved_bytes),
    ("fieldio", "sha256_file", "fieldio.sha256_file", _hashed_bytes),
    ("fieldio", "write_json", "fieldio.write_json", None),
    ("cli", "main", "cli.main", None),
]

LAYERS = [name for _, _, name, _ in TARGETS]


@dataclass(slots=True)
class Span:
    name: str
    parent: int
    task: int
    t0: float = 0.0
    t1: float = 0.0
    child_foot: float = 0.0
    counters: dict | None = None
    error: str | None = None

    @property
    def self_s(self) -> float:
        return (self.t1 - self.t0) - self.child_foot


@dataclass
class Recorder:
    """In-memory span store; ``task`` tags spans with the current task id."""

    spans: list = field(default_factory=list)
    task: int = -1
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def wrap(self, name, fn, counters_fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_enter = clock()
            span = Span(name, stack[-1][1] if stack else -1, self.task)
            stack.append((span, len(spans)))
            spans.append(span)
            span.t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            else:
                span.t1 = clock()
                if counters_fn is not None:
                    span.counters = counters_fn(args, kwargs, result)
                return result
            finally:
                if span.error is not None:
                    span.t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][0].child_foot += clock() - t_enter

        return traced

    def install(self, callers=()) -> None:
        """Wrap every target whose module is loaded, rebinding all aliases.

        ``callers`` are further modules (the benchmark's own) whose
        ``from awsym import ...`` bindings must go through the wrappers too.
        """
        loaded = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == "awsym"
                                        or name.startswith("awsym."))]
        loaded += list(callers)
        for mod_name, attr, layer, counters_fn in TARGETS:
            module = sys.modules.get(f"awsym.{mod_name}")
            if module is None:
                continue
            owner, leaf = module, attr
            if "." in attr:
                cls_name, leaf = attr.split(".")
                owner = getattr(module, cls_name)
            original = owner.__dict__[leaf] if isinstance(owner, type) \
                else getattr(owner, leaf)
            wrapped = self.wrap(layer, original, counters_fn)
            self._undo.append((owner, leaf, original))
            setattr(owner, leaf, wrapped)
            if isinstance(owner, type):
                continue
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def dump(self, path) -> None:
        rows = [{"id": i, "name": s.name, "parent": s.parent, "task": s.task,
                 "t0": s.t0, "t1": s.t1, "self_s": s.self_s,
                 **({"counters": s.counters} if s.counters else {}),
                 **({"error": s.error} if s.error else {})}
                for i, s in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, separators=(",", ":"))


def load_spans(path) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        rows = json.load(fh)
    out = []
    for row in rows:
        span = Span(row["name"], row["parent"], row["task"], row["t0"],
                    row["t1"], 0.0, row.get("counters"), row.get("error"))
        span.child_foot = (row["t1"] - row["t0"]) - row["self_s"]
        out.append(span)
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts, self times and computed byte counters."""
    calls = dict.fromkeys(LAYERS, 0)
    busy = dict.fromkeys(LAYERS, 0.0)
    sums: dict[str, float] = {}
    for span in spans:
        calls[span.name] += 1
        busy[span.name] += span.self_s
        for key, value in (span.counters or {}).items():
            sums[f"{span.name}.{key}"] = sums.get(f"{span.name}.{key}",
                                                   0) + value
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.busy_s"] = busy[layer]
    entries = sums.get("quantize.assemble_antiwick.entries", 0)
    out["quantize.assemble_antiwick.out_bytes"] = \
        sums.get("quantize.assemble_antiwick.out_bytes", 0)
    out["quantize.assemble_antiwick.band_ratio"] = \
        sums.get("quantize.assemble_antiwick.band_entries", 0) / entries \
        if entries else 0.0
    out["quantize.kernel_from_weyl.out_bytes"] = \
        sums.get("quantize.kernel_from_weyl.out_bytes", 0)
    out["heat.desmooth_complex.slab_evals"] = \
        sums.get("heat.desmooth_complex.slab_evals", 0)
    out["core.fft_bytes"] = (sums.get("core.fourier.fft_bytes", 0)
                             + sums.get("core.inverse_fourier.fft_bytes", 0))
    # flagged results plus test functions the complex-shift route rejects
    out["pairing.antiwick_pair.flagged"] = \
        sums.get("pairing.antiwick_pair.flagged", 0) + sum(
            1 for s in spans if s.name == "pairing.antiwick_pair"
            and s.error == "ESpaceDivergenceError")
    out["fieldio.bytes_read"] = sum(
        v for k, v in sums.items()
        if k.startswith("fieldio.") and k.endswith(".bytes_read"))
    out["fieldio.bytes_written"] = sum(
        v for k, v in sums.items()
        if k.startswith("fieldio.") and k.endswith(".bytes_written"))
    return out


def module_self_times(spans) -> dict[str, float]:
    """Self time summed per awsym module (the first part of a layer name)."""
    out: dict[str, float] = {}
    for span in spans:
        module = span.name.split(".")[0]
        out[module] = out.get(module, 0.0) + span.self_s
    return out


def root_inclusive_times(spans) -> dict[str, float]:
    """Inclusive time of top-level spans, by layer."""
    out: dict[str, float] = {}
    for span in spans:
        if span.parent == -1:
            out[span.name] = out.get(span.name, 0.0) + (span.t1 - span.t0)
    return out
