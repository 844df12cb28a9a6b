"""One fresh benchmark process for a library or file workload.

Started by ``run.py`` with the program's production defaults (native backend
on, metrics registry on, tracing off) and a fresh native-artifact directory.
It times the first call of each shape as set-up, then, unless ``--mode
setup``, runs the closed measuring loop and checks every output byte-exact
against numpy outside the timer.  The last stdout line is a JSON record.

``--mode traced`` installs the timing wrappers of ``tracing.py`` before
set-up, measures half the time untraced and half traced, and adds the
per-layer figures.
"""

from __future__ import annotations

import argparse
import os
import sys
from time import monotonic, perf_counter

from common import (
    FILE,
    FILE_TINY,
    LIB,
    LIB_TINY,
    Checker,
    emit,
    generate,
    median,
    memcpy_gb_s,
    vm_hwm_mb,
)


def _loop(budget_s: float, n_kinds: int, once) -> list:
    """Round-robin ``once(k)`` until ``budget_s`` seconds of timed work and
    a whole round are done (or, if calls keep failing, until three times the
    budget has passed); returns the records of the calls that succeeded."""
    records, spent, k = [], 0.0, 0
    give_up = monotonic() + 3 * budget_s + 5
    while (spent < budget_s or k % n_kinds) and monotonic() < give_up:
        rec = once(k % n_kinds)
        k += 1
        if rec is not None:
            records.append(rec)
            spent += rec[0]
    return records


# -- library workloads -------------------------------------------------------


def run_lib(args, rec, checker):
    import numpy as np

    import repro

    shapes = (LIB_TINY if args.tiny else LIB)[args.workload]
    bufs = []
    for i, (m, n, dt) in enumerate(shapes):
        src = generate(args.seed, i, m * n, dt)
        exp = np.ascontiguousarray(src.reshape(m, n).T).reshape(-1)
        bufs.append((m, n, src, exp, np.empty_like(src)))

    def once(k: int, tracer, name: str, measured: bool = True):
        m, n, src, exp, buf = bufs[k]
        np.copyto(buf, src)
        try:
            if tracer is None:
                t0 = perf_counter()
                repro.transpose_inplace(buf, m, n)
                dt = perf_counter() - t0
            else:
                with tracer.span(name, str(k)) as sp:
                    repro.transpose_inplace(buf, m, n)
                dt = sp.duration
        except Exception:  # a failed call is counted, never timed
            checker.error()
            return None
        checker.check(buf, exp, measured)
        return dt, buf.nbytes

    first = [once(k, rec, "setup", measured=False) for k in range(len(bufs))]
    out = {"first_s": sum(r[0] for r in first if r)}
    if args.mode == "setup":
        return out
    if rec is None:
        calls = _loop(args.seconds, len(bufs), lambda k: once(k, None, "call"))
    else:
        rec.uninstall()
        plain = _loop(args.seconds / 2, len(bufs), lambda k: once(k, None, "call"))
        from tracing import install

        install(rec)
        calls = _loop(args.seconds / 2, len(bufs), lambda k: once(k, rec, "call"))
        out["layers"] = lib_layers(rec, bufs, plain, calls)
    out["calls_s"] = [c[0] for c in calls]
    out["bytes"] = [c[1] for c in calls]
    return out


def lib_layers(rec, bufs, plain, calls) -> dict:
    from tracing import layer_totals, native_layers, under

    roots = rec.roots("call")
    tot = layer_totals(under(roots))
    call_s = sum(r.duration for r in roots)
    core_self = tot.get("call", 0.0)
    plan_s = tot.get("plan_cache.get_plan", 0.0) + tot.get("core.plan_build", 0.0)
    p50_plain = median([c[0] for c in plain])
    memcpy = memcpy_gb_s(max(b[4].nbytes for b in bufs))
    out = native_layers(tot, len(roots), memcpy)
    out.update({
        "native.kernel_share": tot.get("native.pass", 0.0) / call_s,
        "core.exec_self_ms": 1e3 * core_self / len(roots),
        "core.plan_share": plan_s / call_s,
        "trace.attributed_frac": 1.0 - core_self / call_s,
        "trace.overhead_frac": (median([c[0] for c in calls]) - p50_plain) / p50_plain,
        "ref.memcpy_gb_s": memcpy,
    })
    return out


# -- file workload -----------------------------------------------------------


def run_file(args, rec, checker, workdir):
    import numpy as np

    from repro.runtime import metrics
    from repro.stream import naive_transpose_copy, transpose_file_inplace

    m, n, dt, window = FILE_TINY if args.tiny else FILE
    path = os.path.join(workdir, f"matrix-{os.getpid()}.bin")
    src = generate(args.seed, 0, m * n, dt)
    exp = np.ascontiguousarray(src.reshape(m, n).T).reshape(-1)
    src.tofile(path)
    state = {"flipped": False}  # whether the file holds the transpose

    def once(tracer, name: str, measured: bool = True):
        shape, expect = ((n, m), src) if state["flipped"] else ((m, n), exp)
        try:
            if tracer is None:
                t0 = perf_counter()
                stats = transpose_file_inplace(path, *shape, dt, window_bytes=window)
                dur = perf_counter() - t0
            else:
                with tracer.span(name) as sp:
                    stats = transpose_file_inplace(path, *shape, dt, window_bytes=window)
                dur = sp.duration
        except Exception:
            checker.error()
            src.tofile(path)
            state["flipped"] = False
            return None
        state["flipped"] = not state["flipped"]
        if not checker.check(np.fromfile(path, dtype=dt), expect, measured):
            src.tofile(path)
            state["flipped"] = False
        return dur, src.nbytes, stats

    first = once(rec, "setup", measured=False)
    out = {"first_s": first[0] if first else 0.0}
    if args.mode == "setup":
        os.unlink(path)
        return out
    if rec is None:
        jobs = _loop(args.seconds, 1, lambda _: once(None, "job"))
    else:
        rec.uninstall()
        plain = _loop(args.seconds / 2, 1, lambda _: once(None, "job"))
        from tracing import install

        install(rec)
        before = metrics.snapshot()["timers"]
        jobs = _loop(args.seconds / 2, 1, lambda _: once(rec, "job"))
        after = metrics.snapshot()["timers"]
        out["layers"] = file_layers(rec, src.nbytes, plain, jobs, before, after)
        # reference row: the two-file out-of-place copy on the same file
        shape, expect = ((n, m), src) if state["flipped"] else ((m, n), exp)
        dst = path + ".naive"
        t0 = perf_counter()
        naive_transpose_copy(path, dst, *shape, dt)
        naive_s = perf_counter() - t0
        checker.check(np.fromfile(dst, dtype=dt), expect, measured=False)
        os.unlink(dst)
        out["layers"]["stream.naive_ratio"] = naive_s / median([j[0] for j in jobs])
    os.unlink(path)
    out["calls_s"] = [j[0] for j in jobs]
    out["bytes"] = [j[1] for j in jobs]
    return out


def file_layers(rec, nbytes, plain, jobs, before, after) -> dict:
    from tracing import layer_totals, native_layers, under

    roots = rec.roots("job")
    tot = layer_totals(under(roots))
    njobs = len(roots)
    job_s = sum(r.duration for r in roots)
    pass_s = tot.get("native.pass", 0.0)
    p50_plain = median([j[0] for j in plain])
    memcpy = memcpy_gb_s(nbytes)
    out = native_layers(tot, njobs, memcpy)
    out.update({
        "native.kernel_share": pass_s / job_s,
        "stream.bands": sum(j[2]["bands"] for j in jobs) / njobs,
        "stream.bytes_rw": sum(j[2]["bytes_read"] + j[2]["bytes_written"] for j in jobs) / njobs,
        "stream.kernel_ms": 1e3 * pass_s / njobs,
        "stream.flush_ms": 1e3 * tot.get("stream.sync", 0.0) / njobs,
        "trace.attributed_frac": 1.0 - tot.get("job", 0.0) / job_s,
        "trace.overhead_frac": (median([j[0] for j in jobs]) - p50_plain) / p50_plain,
        "ref.memcpy_gb_s": memcpy,
    })
    for name, timer in after.items():
        if name.startswith("stream.pass."):
            spent = timer["total_s"] - before.get(name, {}).get("total_s", 0.0)
            out[f"stream.pass_ms.{name[len('stream.pass.'):]}"] = 1e3 * spent / njobs
    return out


# -- entry point -------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=["lib-hot", "lib-large", "file-stream"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "measure", "traced"], required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before this process started")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--inject-fault", action="store_true")
    args = ap.parse_args()

    import repro  # noqa: F401  (import time is part of set-up)
    from repro.runtime import metrics

    startup_s = monotonic() - args.spawned_at
    rec = None
    if args.mode == "traced":
        from tracing import Recorder, install

        rec = install(Recorder())
    checker = Checker(args.inject_fault)
    if args.workload == "file-stream":
        out = run_file(args, rec, checker, args.workdir)
    else:
        out = run_lib(args, rec, checker)
    out["setup_s"] = startup_s + out.pop("first_s")
    out["rss_mb"] = vm_hwm_mb()
    out["attempted"] = checker.attempted
    out["failed"] = checker.failed
    counters = metrics.snapshot()["counters"]
    out["counters"] = {k: v for k, v in counters.items() if k.startswith("native.")}
    if rec is not None:
        from tracing import process_layers

        out["layers"].update(process_layers(rec))
    emit(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
