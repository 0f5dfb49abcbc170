"""Span recorder that wraps evenrev's public functions from outside the package.

``install`` replaces every module attribute that refers to a traced function,
including the names other evenrev modules imported (``transform.subdivide``,
``cli.decompose`` ...), with a wrapper that records a span while the tracer is
active.  Spans live in compact arrays in memory and are written out once, at
the end of a run.  A layer's self time is its span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

EVENREV_MODULES = (
    "laurent", "masks", "inverse", "transform", "analysis", "serialize", "cli", "selftest",
)


class Tracer:
    """Nested spans with per-name self time, call counts and work counts."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[list] = []  # [span index, time covered by children]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append([idx, 0.0])
        self.start.append(time.perf_counter())

    def _exit(self, name: str) -> None:
        now = time.perf_counter()
        idx, covered = self._stack.pop()
        self.end[idx] = now
        duration = now - self.start[idx]
        self.self_s[name] += duration - covered
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        self._enter(name)
        try:
            yield
        finally:
            self._exit(name)

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def wrap(self, fn, name, count=None):
        """Wrapper recording a span named ``name`` (or ``name(args, kwargs)``).

        ``count(counts, result, args, kwargs)`` adds work counts after the call.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(args, kwargs)
            self._enter(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(label)
            if count is not None:
                count(self.counts, result, args, kwargs)
            return result

        return traced

    # -- output ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Copy of the aggregates, to subtract one phase from another."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def write(self, path: str) -> None:
        """Write every span: name, start, end, parent and root (its operation)."""
        parent = np.frombuffer(self.parent, dtype=np.int64)
        root = np.arange(parent.size)
        for i in range(parent.size):
            if parent[i] >= 0:
                root[i] = root[parent[i]]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            parent=parent,
            root=root,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


# ---------------------------------------------------------------------------
# what is traced
# ---------------------------------------------------------------------------


def _add(key, amount):
    def count(counts, result, args, kwargs):
        counts[key] += amount(result, args, kwargs)

    return count


def _decimate_name(args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "exact")
    return "transform.decimate_kernel" if mode == "kernel" else "transform.decimate_exact"


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}"


def _targets(er):
    """(module, attribute, span name, count) for every traced function."""
    return [
        (er.laurent, "subdivide", "laurent.subdivide",
         _add("laurent.subdivide.samples_out", lambda r, a, k: r.size)),
        (er.laurent, "circular_convolve", "laurent.circular_convolve", None),
        (er.laurent, "as_signal", "laurent.as_signal",
         _add("laurent.as_signal.bytes", lambda r, a, k: r.nbytes)),
        (er.masks, "bspline_mask", "masks.build", None),
        (er.masks, "pseudo_spline_mask", "masks.build", None),
        (er.masks, "dd_mask", "masks.build", None),
        (er.inverse, "even_inverse_spectral", "inverse.even_inverse_spectral", None),
        (er.inverse, "decay_certificate", "inverse.decay_certificate", None),
        (er.inverse, "check_even_reversible", "inverse.check_even_reversible", None),
        (er.transform, "decimate", _decimate_name, None),
        (er.transform, "decompose", "transform.decompose", None),
        (er.transform, "reconstruct", "transform.reconstruct", None),
        (er.transform, "threshold_details", "transform.threshold_details", None),
        (er.analysis, "decay_report", "analysis.decay_report", None),
        (er.analysis, "decomposition_stability_experiment", "analysis.stability", None),
        (er.analysis, "reconstruction_stability_experiment", "analysis.stability", None),
        (er.analysis, "compression_experiment", "analysis.compression_experiment", None),
        (er.analysis, "estimate_subdivision_sup_norm",
         "analysis.estimate_subdivision_sup_norm", None),
        (er.serialize, "dump_json", "serialize.dump_json", None),
        (er.serialize, "load_json", "serialize.load_json",
         _add("serialize.bytes_read", lambda r, a, k: os.path.getsize(a[0]))),
        (er.serialize, "pyramid_to_obj", "serialize.pyramid_to_obj", None),
        (er.serialize, "pyramid_from_obj", "serialize.pyramid_from_obj", None),
        (er.serialize, "signal_to_csv_text", "serialize.signal_csv", None),
        (er.serialize, "signal_from_csv_text", "serialize.signal_csv",
         _add("serialize.bytes_read", lambda r, a, k: len(a[0]))),
        (er.serialize, "write_text_atomic", "serialize.write_text_atomic",
         _add("serialize.bytes_written", lambda r, a, k: len(a[1]))),
        (er.cli, "main", _cli_name, None),
    ]


def install(tracer: Tracer, er) -> None:
    """Route every reference to a traced evenrev function through ``tracer``."""
    modules = [er] + [getattr(er, name) for name in EVENREV_MODULES]
    for module, attr, name, count in _targets(er):
        original = getattr(module, attr)
        wrapper = tracer.wrap(original, name, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    mask_cls = er.laurent.Mask
    mask_cls.symbol = tracer.wrap(
        mask_cls.symbol,
        "laurent.symbol",
        _add("laurent.symbol.points", lambda r, a, k: int(np.size(a[1]))),
    )
