"""Span tracing of splitrate from outside the package.

:class:`Tracer` replaces every public function of the splitrate modules, in
every module namespace that binds it, with a wrapper that records one span
per call: name, start, end and parent. ``Vec`` constructions are counted at
``Vec.__post_init__``, which is also timed as a ``hilbert`` span. Spans stay
in compact arrays in memory until the run ends; :func:`self_times` turns them
into per-span self time (duration minus the part its child spans cover).

No file under ``src/`` is changed: the wrappers are installed by assignment
and removed again by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from array import array

import numpy as np

#: the package's modules, which are the benchmark's layers
LAYERS = ("hilbert", "functions", "prox", "splitting", "rates", "worstcase", "acceptance", "cli")

#: engines whose outermost calls count as runs
ENGINES = ("splitting.run_dr", "splitting.run_dual_dr", "splitting.run_admm")

#: private functions that are the only boundary for a layer metric
_PRIVATE_BOUNDARIES = {"cli": ("_write_text",)}

#: functions whose return values are kept (the battery's CriterionResults)
KEEP_RESULTS = ("acceptance.run_all",)

VEC_SPAN = "hilbert.Vec"


class Tracer:
    """Records spans for every call into a public splitrate function.

    ``engine_runs`` holds one ``(span, steps, kept, dim, diverged)`` tuple per
    engine call, read from the returned trace (or from the trace a
    ``DivergenceError`` carries); ``results`` holds the return values of the
    names in ``KEEP_RESULTS``.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.engine_runs: list[tuple] = []
        self.results: dict[str, list] = {name: [] for name in KEEP_RESULTS}
        self._restore: list[tuple] = []
        self._divergence = RuntimeError

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        open_, close = self._open, self._close
        if name in ENGINES:
            return self._wrap_engine(fn, nid)
        if name in self.results:
            sink = self.results[name]

            @functools.wraps(fn)
            def kept(*args, **kwargs):
                idx = open_(nid)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    close(idx)
                sink.append(out)
                return out

            return kept

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def _wrap_engine(self, fn, nid: int):
        open_, close, runs, divergence = self._open, self._close, self.engine_runs, self._divergence

        @functools.wraps(fn)
        def engine(*args, **kwargs):
            idx = open_(nid)
            trace, diverged = None, False
            try:
                trace = fn(*args, **kwargs)
                return trace
            except divergence as exc:
                trace, diverged = exc.trace, True
                raise
            finally:
                close(idx)
                if trace is not None:
                    kept = len(trace.iterates)
                    runs.append((idx, kept - 1, kept, trace.fixed_point.dim, diverged))

        return engine

    # -- installing ----------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every public function in every splitrate namespace binding it."""
        import splitrate
        from splitrate import hilbert
        from splitrate.splitting import DivergenceError

        self._divergence = DivergenceError
        modules = [importlib.import_module(f"splitrate.{layer}") for layer in LAYERS]
        wrappers: dict[int, object] = {}
        for module in [splitrate, *modules]:
            for attr, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                home = value.__module__ or ""
                if not home.startswith("splitrate."):
                    continue
                layer = home.split(".")[-1]
                private_ok = attr in _PRIVATE_BOUNDARIES.get(layer, ()) and value.__name__ == attr
                if attr.startswith("_") and not private_ok:
                    continue
                key = id(value)
                if key not in wrappers:
                    wrappers[key] = self._wrap(value, f"{layer}.{value.__name__}")
                self._restore.append((module, attr, value))
                setattr(module, attr, wrappers[key])

        post_init = hilbert.Vec.__post_init__
        vec_id = self._id(VEC_SPAN)
        open_, close = self._open, self._close

        def counted_post_init(vec):
            idx = open_(vec_id)
            try:
                post_init(vec)
            finally:
                close(idx)

        self._restore.append((hilbert.Vec, "__post_init__", post_init))
        hilbert.Vec.__post_init__ = counted_post_init
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output --------------------------------------------------------------

    def spans(self) -> dict:
        """Spans as arrays: name ids, parent index (-1 for roots), start and
        end in nanoseconds, plus the name table."""
        return {
            "names": list(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def write(self, path) -> None:
        """Write the spans out (one ``.npz`` archive)."""
        spans = self.spans()
        names = np.array(spans.pop("names"))
        np.savez(path, names=names, **spans)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the union of its children's
    intervals, each clipped to the parent's interval. Units follow the input.

    Works for any span tree, including children that overlap each other.
    """
    parent = np.asarray(parent, dtype=np.int64)
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    duration = end - start
    n = duration.size
    is_child = parent >= 0
    if n == 0 or not is_child.any():
        return duration.astype(np.float64)
    kids = np.nonzero(is_child)[0]
    par = parent[kids]
    origin = int(start.min())
    s = np.maximum(start[kids], start[par]) - origin
    e = np.minimum(end[kids], end[par]) - origin
    e = np.maximum(e, s)  # a child wholly outside its parent covers nothing
    order = np.lexsort((s, par))
    par, s, e = par[order], s[order], e[order]
    # shift each parent's group by its own offset so that one running maximum
    # merges the intervals within every group without crossing groups
    width = int(end.max()) - origin + 1
    group = np.cumsum(np.r_[0, (np.diff(par) != 0).astype(np.int64)])
    s = s + group * width
    e = e + group * width
    reach = np.maximum.accumulate(e)
    prev = np.r_[np.iinfo(np.int64).min, reach[:-1]]
    covered = np.maximum(e - np.maximum(s, prev), 0)
    child_cover = np.bincount(par, weights=covered.astype(np.float64), minlength=n)
    return duration.astype(np.float64) - child_cover


def summarize(tracer: Tracer) -> dict:
    """Per-name call counts, inclusive and self seconds (names never called
    are left out), and per-engine
    totals over outermost engine calls (a ``run_dr`` inside ``run_dual_dr``
    counts once, as the dual run)."""
    spans = tracer.spans()
    names = spans["names"]
    nid, parent = spans["name_id"], spans["parent"]
    duration = (spans["end"] - spans["start"]).astype(np.float64)
    own = self_times(parent, spans["start"], spans["end"])
    k = len(names)
    calls = np.bincount(nid, minlength=k)
    incl = np.bincount(nid, weights=duration, minlength=k) * 1e-9
    self_s = np.bincount(nid, weights=own, minlength=k) * 1e-9
    engines: dict[str, dict] = {}
    for idx, steps, kept, dim, diverged in tracer.engine_runs:
        up = int(parent[idx])
        if up >= 0 and names[nid[up]] in ENGINES:
            continue
        agg = engines.setdefault(
            names[nid[idx]], {"runs": 0, "steps": 0, "diverged": 0, "trace_bytes": 0, "incl_s": 0.0}
        )
        agg["runs"] += 1
        agg["steps"] += steps
        agg["diverged"] += int(diverged)
        agg["trace_bytes"] += kept * dim * 8
        agg["incl_s"] += float(duration[idx]) * 1e-9
    used = [i for i in range(k) if calls[i]]
    return {
        "calls": {names[i]: int(calls[i]) for i in used},
        "incl_s": {names[i]: float(incl[i]) for i in used},
        "self_s": {names[i]: float(self_s[i]) for i in used},
        "engines": engines,
        "spans": int(nid.size),
    }
