"""In-memory spans recorded by timing wrappers around the program's layers.

The benchmark measures each layer from outside: :func:`install` replaces a
handful of public functions and methods of ``repro`` with wrappers that
record ``(name, start, end, parent)`` spans in this process's memory and
restore the originals on :meth:`Recorder.uninstall`.  Nothing under
``src/`` changes.  Spans nest through a per-thread stack, so a span's
parent is whichever wrapped call (or :meth:`Recorder.span`) was open on the
same thread when it started.
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("name", "label", "nbytes", "start", "end", "parent", "children")

    def __init__(self, name, label, nbytes, parent):
        self.name, self.label, self.nbytes, self.parent = name, label, nbytes, parent
        self.children: list[Span] = []
        self.start = self.end = perf_counter()

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the part of it that child spans cover."""
        return self.duration - sum(c.duration for c in self.children)

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()


class Recorder:
    """Span store plus the patch list that feeds it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        #: plan identity -> scratch bytes, for every plan a lookup returned
        self.plan_scratch: dict[tuple, int] = {}

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _open(self, name: str, label: str = "", nbytes: int = 0) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(name, label, nbytes, parent)
        with self._lock:
            self.spans.append(span)
            if parent is not None:
                parent.children.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, label: str = ""):
        sp = self._open(name, label)
        try:
            yield sp
        finally:
            self._close(sp)

    def wrap(self, owner, attr: str, name: str, describe=None, on_result=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``describe(args)`` returns the span's ``(label, nbytes)``, e.g. a
        kernel pass kind and the bytes it reads and writes;
        ``on_result(value)`` sees each return value.
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        rec = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            sp = rec._open(name, *(describe(args) if describe else ()))
            try:
                out = orig(*args, **kwargs)
            finally:
                rec._close(sp)
            if on_result is not None:
                on_result(out)
            return out

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def roots(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name and s.parent is None]


# Computed bytes of one kernel entry call: every pass reads and writes the
# part of the matrix its [lo, hi) range of the parallel axis covers.
def _tile_bytes(kernel) -> int:
    s = kernel.spec
    return s.m * s.n * s.itemsize


def _pass_range(args):
    kernel, idx, _addr, lo, hi = args[:5]
    p = kernel.spec.passes[idx]
    return p.kind, 2 * _tile_bytes(kernel) * (hi - lo) // p.extent


def _pass_batch(args):
    kernel, idx, _addr, k = args
    return kernel.spec.passes[idx].kind, 2 * _tile_bytes(kernel) * k


def _run_all(args):
    kernel, k = args[0], (args[2] if len(args) > 2 else 1)
    return "all", 2 * _tile_bytes(kernel) * k * len(kernel.spec.passes)


def install(rec: Recorder) -> Recorder:
    """Wrap the calls each layer is measured at (see README.md)."""
    import repro.native as native
    from repro.core.batched import BatchedTransposePlan
    from repro.core.plan import TransposePlan
    from repro.native.kernel import NativeKernel
    from repro.runtime import plan_cache
    from repro.stream import window

    def note_plan(plan) -> None:
        key = (type(plan).__name__, plan.m, plan.n, plan.order, plan.algorithm)
        rec.plan_scratch[key] = plan.scratch_bytes

    rec.wrap(plan_cache, "get_single_plan", "plan_cache.get_plan", on_result=note_plan)
    rec.wrap(plan_cache, "get_batched_plan", "plan_cache.get_plan", on_result=note_plan)
    rec.wrap(TransposePlan, "__init__", "core.plan_build")
    rec.wrap(BatchedTransposePlan, "__init__", "core.plan_build")
    rec.wrap(native, "kernel_for_plan", "native.kernel_for_plan")
    rec.wrap(native, "compile_spec", "native.compile")
    rec.wrap(NativeKernel, "run_pass", "native.pass", _pass_range)
    rec.wrap(NativeKernel, "run_pass_banded", "native.pass", _pass_range)
    rec.wrap(NativeKernel, "run_pass_batch", "native.pass", _pass_batch)
    rec.wrap(NativeKernel, "run", "native.pass", _run_all)
    rec.wrap(NativeKernel, "run_batch", "native.pass", _run_all)
    rec.wrap(window, "sync_pages_async", "stream.sync")
    rec.wrap(window.ResidentWindow, "flush", "stream.sync")
    return rec


def layer_totals(spans) -> dict:
    """Self seconds per span name over ``spans`` and, per kernel pass kind,
    ``native.pass.<kind>`` seconds, ``native.bytes.<kind>`` and
    ``native.count.<kind>``."""
    out: dict[str, float] = {}
    for sp in spans:
        out[sp.name] = out.get(sp.name, 0.0) + sp.self_time
        if sp.name == "native.pass":
            for key, v in (("pass", sp.duration), ("bytes", sp.nbytes), ("count", 1)):
                full = f"native.{key}.{sp.label}"
                out[full] = out.get(full, 0) + v
    return out


def under(roots) -> list[Span]:
    """Every span in the trees below ``roots``, the roots included."""
    return [sp for r in roots for sp in r.walk()]


def pass_kinds(tot: dict) -> list[str]:
    return sorted(k.split(".", 2)[2] for k in tot if k.startswith("native.count."))


def totals_by_name(rec: Recorder, name: str) -> tuple[float, int]:
    """Total duration and count of every span called ``name``."""
    sel = [s for s in rec.spans if s.name == name]
    return sum(s.duration for s in sel), len(sel)


def process_layers(rec: Recorder) -> dict:
    """Figures over the whole traced process, set-up included: compiles,
    plan builds and the plan cache's own statistics."""
    from repro.runtime import metrics, plan_cache

    counters = metrics.snapshot()["counters"]
    cache = plan_cache.stats()
    build_s, builds = totals_by_name(rec, "core.plan_build")
    return {
        "native.compile_s": totals_by_name(rec, "native.compile")[0],
        "native.compiles": counters.get("native.compile", 0),
        "native.fallbacks": counters.get("native.fallback", 0),
        "core.plan_build_s": build_s,
        "core.plan_builds": builds,
        "core.plan_scratch_mb": sum(rec.plan_scratch.values()) / 2**20,
        "plan_cache.hit_ratio": cache["hit_rate"],
        "plan_cache.misses": cache["misses"],
        "plan_cache.evictions": cache["evictions"],
        "plan_cache.oversize_rejects": cache["oversize_rejects"],
        "plan_cache.build_s": cache["build_seconds"],
        "plan_cache.bytes": cache["current_bytes"],
    }


def native_layers(tot: dict, n_units: int, memcpy: float) -> dict:
    """Kernel figures per unit of work (call, job or request window)."""
    out = {
        "native.calls": sum(tot.get(f"native.count.{k}", 0) for k in pass_kinds(tot)),
        "native.bytes_moved": sum(tot[f"native.bytes.{k}"] for k in pass_kinds(tot)) / n_units,
    }
    for kind in pass_kinds(tot):
        t = tot[f"native.pass.{kind}"]
        out[f"native.pass_ms.{kind}"] = 1e3 * t / n_units
        out[f"native.roofline_frac.{kind}"] = tot[f"native.bytes.{kind}"] / t / 1e9 / memcpy
    return out
