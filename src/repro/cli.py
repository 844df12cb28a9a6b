"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info M N``
    Decomposition analysis of a shape: constants, algorithm choice, work
    bound, cycle-following comparison and modeled K20c throughput.
``transpose FILE M N``
    Transpose a raw binary matrix file in place (out of core,
    ``O(max(m, n))`` scratch).
``convert FILE N S``
    Convert a raw AoS binary file to SoA (or back, or to the ASTA hybrid)
    in place.
``bench M N``
    Quick wall-clock of the in-place transpose on this machine.
``landscape``
    Print the modeled C2R/R2C throughput landscape (Figures 4-5).
``selftest``
    Run the validation harness over every transposer in the library.
``stats``
    Print a JSON snapshot of the instrumented runtime (per-pass timings,
    bytes moved, plan-cache hit/miss/eviction counts), optionally after
    exercising a small repeated-shape workload.
``analyze``
    Prove the permutation algebra over a shape lattice (bijectivity,
    inversion, composition, fast division), the race-freedom of the
    parallel schedules, and the repo lint invariants; emit a JSON report
    and exit non-zero on any failure.
``trace``
    Run a traced workload and export the structured spans as a
    Chrome/Perfetto trace, a Prometheus text snapshot, or a readable
    per-thread tree.
``profile``
    Per-pass bandwidth breakdown (achieved GB/s and memcpy fraction) from
    a traced run — the Section 7 per-pass evaluation, on this machine.
``transpose-file``
    Out-of-core in-place transpose of a raw binary matrix file through
    ``O(max(m, n))`` scratch (alias of ``transpose``, kept under the
    explicit name).
``serve``
    Run the HTTP transposition service: bounded queue with admission
    control, shape-coalescing batcher, draining worker pool,
    ``/transpose`` + ``/healthz`` + ``/metrics`` endpoints.  SIGINT/
    SIGTERM shut down gracefully (drain, never drop) and print a summary.
``loadtest``
    Open-loop Poisson load generator against a running server (or an
    in-process one with ``--inproc``): p50/p99 latency, throughput vs the
    direct-call ceiling, coalesced-vs-naive batching speedup, optional
    threshold assertions for CI.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

__all__ = ["main"]


def _cmd_info(args: argparse.Namespace) -> int:
    from .core.cyclestats import (
        decomposition_task_profile,
        transposition_cycle_profile,
    )
    from .core.indexing import Decomposition
    from .core.transpose import choose_algorithm
    from .gpusim.cost import auto_cost

    m, n = args.m, args.n
    dec = Decomposition.of(m, n)
    print(f"shape: {m} x {n}  ({m * n} elements)")
    print(f"decomposition: c = gcd = {dec.c}, a = m/c = {dec.a}, b = n/c = {dec.b}")
    print(f"pre-rotation pass needed: {not dec.coprime}")
    print(f"heuristic algorithm: {choose_algorithm(m, n).upper()}")
    passes = 2 if dec.coprime else 3
    print(f"work bound: {2 * passes} accesses/element "
          f"({passes} passes); aux space: {max(m, n)} elements")
    if m * n <= args.cycle_limit:
        prof = transposition_cycle_profile(m, n)
        task = decomposition_task_profile(m, n)
        if prof.n_units:
            print(f"cycle following: {prof.n_units} cycles, largest holds "
                  f"{prof.largest_fraction * 100:.1f}% of all work "
                  f"(8-way speedup bound {prof.speedup_bound(8):.2f}x)")
        print(f"decomposition: {task.n_units} equal-cost units "
              f"(8-way speedup bound {task.speedup_bound(8):.2f}x)")
    cost = auto_cost(m, n, args.itemsize)
    print(f"modeled Tesla K20c throughput ({args.itemsize}-byte elements): "
          f"{cost.throughput_gbps:.1f} GB/s")
    if args.breakdown:
        print("pass breakdown:")
        for p in cost.passes:
            print(f"  {p.name:<24} {p.useful_bytes/1e9:7.3f} GB useful @ "
                  f"{p.efficiency*100:5.1f}% -> {p.dram_bytes/1e9:7.3f} GB DRAM")
        print(f"  total {cost.dram_bytes/1e9:.3f} GB DRAM, "
              f"{cost.seconds*1e3:.2f} ms")
    return 0


def _cmd_transpose(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    detail = ""
    try:
        if getattr(args, "stream", True):
            # Streamed path (default): band-by-band through the bounded
            # resident window, so peak RSS honors --window-bytes no matter
            # how large the file is.  --threads > 1 runs chunks *within* a
            # band on a thread pool under the pre-proven banded schedule —
            # the old whole-file memmap walk is gone.
            from .stream import parse_bytes, transpose_file_inplace

            window = (
                parse_bytes(args.window_bytes) if args.window_bytes else None
            )
            stats = transpose_file_inplace(
                args.file, args.m, args.n, args.dtype, args.order,
                algorithm=args.algorithm,
                window_bytes=window,
                n_threads=args.threads,
            )
            detail = (
                f", {stats['bands']} band(s) @ "
                f"{stats['window_bytes'] / 1e6:.0f} MB window, "
                f"{stats['threads']} threads worker(s)"
            )
        else:
            # --no-stream: the strict in-RAM reference path.  Loads the
            # whole file; useful only for debugging the streamed path
            # against the core library on files that fit in memory.
            import os

            from .core import transpose_inplace

            dtype = np.dtype(args.dtype)
            expected = args.m * args.n * dtype.itemsize
            actual = os.stat(args.file).st_size
            if actual != expected:
                raise ValueError(
                    f"{args.file} holds {actual} bytes; "
                    f"{args.m} x {args.n} {args.dtype} needs {expected}"
                )
            buf = np.fromfile(args.file, dtype=dtype)
            transpose_inplace(
                buf, args.m, args.n, args.order, algorithm=args.algorithm
            )
            buf.tofile(args.file)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}")
        return 1
    dt = time.perf_counter() - t0
    nbytes = args.m * args.n * np.dtype(args.dtype).itemsize
    print(f"transposed {args.file} ({args.m} x {args.n} {args.dtype}, "
          f"{nbytes / 1e6:.1f} MB) in {dt:.2f}s "
          f"({2 * nbytes / dt / 1e9:.3f} GB/s){detail}")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .aos import aos_to_asta, aos_to_soa_flat, asta_to_aos, soa_to_aos_flat

    path = Path(args.file)
    dtype = np.dtype(args.dtype)
    expected = args.n * args.s * dtype.itemsize
    actual = path.stat().st_size
    if actual != expected:
        print(f"error: {path} holds {actual} bytes; "
              f"{args.n} x {args.s} {args.dtype} needs {expected}")
        return 1
    buf = np.memmap(  # repro-lint: allow(whole-file-memmap) AoS convert is not yet streamed
        path, dtype=dtype, mode="r+", shape=(args.n * args.s,)
    )
    t0 = time.perf_counter()
    try:
        if args.to == "soa":
            aos_to_soa_flat(buf, args.n, args.s)
        elif args.to == "aos":
            soa_to_aos_flat(buf, args.n, args.s)
        elif args.to == "asta":
            aos_to_asta(buf, args.n, args.s, args.tile)
        else:
            asta_to_aos(buf, args.n, args.s, args.tile)
    except ValueError as exc:
        print(f"error: {exc}")
        return 1
    buf.flush()
    dt = time.perf_counter() - t0
    print(f"converted {path} to {args.to} in {dt:.2f}s "
          f"({2 * expected / dt / 1e9:.3f} GB/s)")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .parallel import ParallelTranspose, default_worker_count

    m, n = args.m, args.n
    threads = args.threads or default_worker_count()
    best = float("inf")
    with ParallelTranspose(threads) as pt:
        for _ in range(args.repeats):
            buf = np.arange(m * n, dtype=np.float64)
            t0 = time.perf_counter()
            pt.transpose_inplace(buf, m, n)
            best = min(best, time.perf_counter() - t0)
    print(f"{m} x {n} float64, {threads} threads worker(s): best "
          f"{best * 1e3:.2f} ms = {2 * m * n * 8 / best / 1e9:.3f} GB/s (Eq. 37)")
    return 0


def _cmd_landscape(args: argparse.Namespace) -> int:
    from .gpusim.cost import c2r_cost, r2c_cost

    cost_fn = c2r_cost if args.algorithm == "c2r" else r2c_cost
    grid = np.linspace(args.lo, args.hi, args.cells, dtype=np.int64)
    print(f"{args.algorithm.upper()} modeled throughput (GB/s), "
          f"{args.itemsize}-byte elements")
    print("        " + "".join(f"n={int(n):<8}" for n in grid))
    for m in grid:
        row = [
            cost_fn(int(m) + 1, int(n) + 2, args.itemsize).throughput_gbps
            for n in grid
        ]
        print(f"m={int(m):<7}" + "".join(f"{v:9.1f} " for v in row))
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .aos.skinny import skinny_transpose
    from .baselines import (
        gustavson_transpose,
        sung_transpose,
        transpose_cycle_following,
    )
    from .cache import c2r_cache_aware
    from .core import c2r_transpose, transpose_inplace
    from .parallel import ParallelTranspose, default_worker_count
    from .validation import validate_transposer

    threads = args.threads or default_worker_count()
    # One persistent transposer (and thread pool) for the whole run.
    pt = ParallelTranspose(threads)
    candidates = {
        "transpose_inplace (auto)": lambda b, m, n: transpose_inplace(b, m, n),
        "c2r strict": lambda b, m, n: c2r_transpose(b, m, n, aux="strict"),
        "c2r restricted": lambda b, m, n: c2r_transpose(b, m, n, variant="restricted"),
        "cache-aware c2r": lambda b, m, n: c2r_cache_aware(b, m, n),
        f"parallel ({threads} threads)":
            lambda b, m, n: pt.transpose_inplace(b, m, n),
        "skinny": skinny_transpose,
        "cycle following": lambda b, m, n: transpose_cycle_following(b, m, n),
        "gustavson": lambda b, m, n: gustavson_transpose(b, m, n),
        "sung": lambda b, m, n: sung_transpose(b, m, n),
    }
    failed = False
    try:
        for name, fn in candidates.items():
            report = validate_transposer(fn, count=args.count, seed=args.seed)
            print(f"{name:<24} {report}")
            failed |= not report.ok
    finally:
        pt.close()
    return 1 if failed else 0


def _parse_shapes(spec: str) -> list[tuple[int, int]]:
    """Parse ``"64x96,128x128"`` into shape tuples."""
    shapes = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        m, _, n = part.partition("x")
        try:
            shapes.append((int(m), int(n)))
        except ValueError as exc:
            raise ValueError(f"bad shape {part!r}; expected MxN") from exc
    if not shapes:
        raise ValueError("no shapes given")
    return shapes


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from .core import batched_transpose_inplace, transpose_inplace
    from .runtime import metrics

    if args.reset:
        from .runtime import plan_cache

        metrics.reset()
        plan_cache.clear()
        plan_cache.get_plan_cache().reset_stats()
    if args.exercise:
        try:
            shapes = _parse_shapes(args.shapes)
        except ValueError as exc:
            print(f"error: {exc}")
            return 1
        # Repeated same-shape traffic: first call per shape builds and caches
        # the plan, the remaining repeats hit it — the amortization the
        # runtime exists to provide, visible in the snapshot below.
        for m, n in shapes:
            for _ in range(args.repeats):
                transpose_inplace(np.arange(m * n, dtype=np.float64), m, n)
            batch = np.arange(2 * m * n, dtype=np.float64)
            batched_transpose_inplace(batch, m, n)
    text = json.dumps(metrics.snapshot(), indent=args.indent, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json

    from .analysis import analyze
    from .analysis.driver import DEFAULT_THREAD_COUNTS

    threads = DEFAULT_THREAD_COUNTS
    if args.threads:
        try:
            threads = tuple(int(t) for t in args.threads.split(","))
        except ValueError:
            print(f"error: bad thread list {args.threads!r}; expected e.g. 1,2,4")
            return 1
        if not threads or any(t < 1 for t in threads):
            print("error: thread counts must be positive")
            return 1

    native_configs = None
    if args.native_shapes:
        native_configs = []
        for token in args.native_shapes.split(","):
            parts = token.strip().split(":")
            try:
                m, n = (int(v) for v in parts[0].split("x"))
                order = parts[1].upper() if len(parts) > 1 else "C"
                itemsize = int(parts[2]) if len(parts) > 2 else 8
            except (ValueError, IndexError):
                print(
                    f"error: bad native shape {token!r}; "
                    "expected MxN[:ORDER[:ITEMSIZE]], e.g. 256x384:F:8"
                )
                return 1
            if order not in ("C", "F"):
                print(f"error: bad order {order!r} in {token!r}")
                return 1
            native_configs.append((m, n, order, itemsize))

    progress = None
    message = None
    if args.progress:
        def progress(done: int, total: int) -> None:
            print(f"  lattice: {done}/{total} shapes", file=sys.stderr)

        def message(line: str) -> None:
            print(f"  {line}", file=sys.stderr)

    report = analyze(
        args.m_max,
        args.n_max,
        thread_counts=threads,
        run_lint=not args.no_lint,
        fastdiv=not args.no_fastdiv,
        plan_objects=args.plan_objects,
        native=args.native or native_configs is not None,
        native_configs=native_configs,
        mutation=args.mutation,
        progress=progress,
        message=message,
    )
    text = json.dumps(report, indent=args.indent, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    lattice = report["lattice"]
    races = report["racecheck"]
    print(
        f"algebra: {lattice['shapes']} shapes, {lattice['checks']} checks, "
        f"{len(lattice['failures'])} failed shape(s) ({lattice['seconds']:.1f}s)"
    )
    print(
        f"racecheck: {races['schedules']} schedules over threads "
        f"{races['thread_counts']}, {len(races['failures'])} failed "
        f"({races['seconds']:.1f}s)"
    )
    if "lint" in report:
        nv = len(report["lint"]["violations"])
        print(f"lint: {nv} violation(s)")
        for v in report["lint"]["violations"]:
            print(f"  {v['path']}:{v['line']}: {v['rule']} {v['message']}")
    if "kernelcheck" in report:
        kc = report["kernelcheck"]
        bad = [r for r in kc["reports"] if not r["ok"]]
        print(
            f"kernelcheck: {kc['kernels']} kernels, {kc['checks']} checks, "
            f"{len(bad)} failed, {len(kc['skipped'])} skipped "
            f"({kc['seconds']:.1f}s)"
        )
        for r in bad:
            for c in r["failures"]:
                print(
                    f"  {r['m']}x{r['n']} {r['order']} {r['algorithm']}: "
                    f"{c['name']}: {c['detail']}"
                )
    if "mutation" in report:
        mu = report["mutation"]
        print(
            f"mutation: {mu['killed']}/{mu['applied']} mutants killed across "
            f"{len(mu['classes_applied'])} fault classes "
            f"(min {mu['min_classes']}) ({mu['seconds']:.1f}s)"
        )
        for s in mu["survivors"]:
            print(
                f"  SURVIVED: {s['fault']} on {s['m']}x{s['n']} "
                f"{s['order']} {s['algorithm']}"
            )
    if args.output:
        print(f"wrote {args.output}")
    elif not report["ok"] or args.verbose:
        print(text)
    print("ok" if report["ok"] else "FAILED")
    return 0 if report["ok"] else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from .runtime import metrics
    from .trace import spans
    from .trace.export import (
        from_chrome_trace,
        to_chrome_trace,
        to_prometheus,
        to_request_tree,
        to_tree,
        validate_chrome_trace,
    )

    if args.input:
        # Post-hoc inspection of an exported trace (e.g. the artifact a
        # loadtest --trace-out wrote): reconstruct the records and print
        # either one request's tree or the whole thing.
        with open(args.input, encoding="utf-8") as fh:
            doc = json.load(fh)
        recs = from_chrome_trace(doc)
        if args.request:
            print(to_request_tree(recs, args.request), end="")
        else:
            print(to_tree(recs), end="")
        return 0
    if args.request:
        print("error: --request requires --input FILE (an exported Chrome trace)")
        return 1

    try:
        shapes = _parse_shapes(args.shape)
    except ValueError as exc:
        print(f"error: {exc}")
        return 1

    spans.tracer.reset()
    spans.enable()
    from .core.transpose import transpose_inplace

    # The cached single-matrix path emits one pass.* span per decomposition
    # pass plus cache.hit/miss events; the parallel path adds worker.chunk
    # spans on distinct thread lanes.  Run both so one trace shows the
    # whole story.
    for m, n in shapes:
        proto = np.arange(m * n, dtype=np.float64)
        for _ in range(args.repeats):
            transpose_inplace(proto.copy(), m, n, algorithm=args.algorithm)
        if args.threads > 1:
            from .parallel import ParallelTranspose

            with ParallelTranspose(args.threads) as pt:
                for _ in range(args.repeats):
                    pt.transpose_inplace(proto.copy(), m, n)

    recs = spans.tracer.snapshot()
    if args.format == "chrome":
        doc = to_chrome_trace(recs)
        validate_chrome_trace(doc)
        text = json.dumps(doc, indent=args.indent)
    elif args.format == "tree":
        text = to_tree(recs)
    else:  # prometheus
        text = to_prometheus(metrics.snapshot())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out} ({len(recs)} spans, "
              f"{spans.tracer.dropped} dropped)")
    else:
        print(text)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from .trace.profile import format_profile_table, profile_shapes

    try:
        shapes = _parse_shapes(args.shape)
    except ValueError as exc:
        print(f"error: {exc}")
        return 1
    profiles = profile_shapes(
        shapes,
        dtype=args.dtype,
        repeats=args.repeats,
        threads=args.threads,
        algorithm=args.algorithm,
        backend=args.backend,
    )
    if args.json:
        print(json.dumps([p.as_dict() for p in profiles], indent=args.indent))
    else:
        print(format_profile_table(profiles))
        # One summary line per shape naming the backend that actually ran:
        # a fraction without its engine is unactionable.
        for prof in profiles:
            frac = max((p.memcpy_frac for p in prof.passes), default=0.0)
            print(
                f"{prof.m}x{prof.n}: backend={prof.backend} "
                f"addr%64={prof.addr_mod_64} "
                f"best-pass memcpy fraction {frac:.3f}"
            )
    return 0


def _parse_tenant_weights(spec: str) -> dict:
    """Parse ``"gold=4,free=1"`` into a tenant-weight mapping."""
    weights: dict = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, value = part.partition("=")
        if not _ or not name:
            raise ValueError(
                f"tenant weight {part!r} is not name=weight"
            )
        weights[name] = float(value)
    return weights


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from .parallel import default_worker_count
    from .serve import ServeConfig, TransposeServer

    try:
        tenant_weights = _parse_tenant_weights(args.tenant_weights)
    except ValueError as exc:
        print(f"error: {exc}")
        return 1
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers or default_worker_count(),
        queue_size=args.queue_size,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        request_timeout_s=args.request_timeout,
        slo_p99_ms=args.slo_p99_ms,
        slo_error_budget=args.slo_error_budget,
        tenant_rate=args.tenant_rate,
        tenant_burst_s=args.tenant_burst_s,
        tenant_weights=tenant_weights,
    )
    if args.trace_out:
        from .trace import spans

        spans.tracer.reset()
        spans.enable()
    server = TransposeServer(config, verbose=args.verbose).start()
    host, port = server.address
    quota = (f"{config.tenant_rate:.0f} matrices/s/tenant"
             if config.tenant_rate else "off")
    print(f"repro-serve listening on http://{host}:{port} "
          f"({config.workers} workers, "
          f"queue {config.queue_size}, "
          f"max batch {config.max_batch}, max wait {config.max_wait_ms}ms, "
          f"quotas {quota})")
    print("endpoints: POST /transpose (raw or zero-copy segment), "
          "POST /transpose-file, GET /healthz, GET /metrics, GET /statusz")
    stop = {"signal": None}

    def _on_signal(signum, frame):
        stop["signal"] = signum

    signal.signal(signal.SIGINT, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    t0 = time.monotonic()
    try:
        while stop["signal"] is None:
            time.sleep(0.2)
            if args.max_seconds and time.monotonic() - t0 > args.max_seconds:
                break
    except KeyboardInterrupt:
        pass
    print("shutting down (draining accepted requests)...")
    summary = server.shutdown()
    if args.trace_out:
        import json

        from .trace import spans
        from .trace.export import to_chrome_trace, validate_chrome_trace

        doc = to_chrome_trace(spans.tracer.snapshot())
        counts = validate_chrome_trace(doc)
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        print(f"wrote trace {args.trace_out} "
              f"({counts.get('X', 0)} spans, {counts.get('pids', 1)} pids, "
              f"{spans.tracer.dropped} dropped)")
    print(
        "shutdown summary: "
        f"accepted={summary['accepted']} responded={summary['responded']} "
        f"dropped={summary['dropped']} rejected_full={summary['rejected_full']} "
        f"retries={summary['retries']} drained={summary['drained']} "
        f"shm_leaked={summary['shm_leaked']}"
    )
    ok = (
        summary["dropped"] == 0
        and summary["drained"]
        and summary["shm_leaked"] == 0
    )
    return 0 if ok else 1


def _cmd_loadtest(args: argparse.Namespace) -> int:
    import json

    from .serve.loadgen import format_report, parse_shape_mix, run_loadtest

    try:
        shapes = parse_shape_mix(args.shapes)
    except ValueError as exc:
        print(f"error: {exc}")
        return 1

    if args.trace_out and not args.inproc:
        print("error: --trace-out requires --inproc (the trace ring lives "
              "in the server process)")
        return 1
    if args.trace_out:
        from .trace import spans

        spans.tracer.reset()
        spans.enable()

    server = None
    url = args.url
    if args.inproc:
        from .parallel import default_worker_count
        from .serve import ServeConfig, TransposeServer

        server = TransposeServer(ServeConfig(
            port=0,
            workers=args.workers or default_worker_count(),
            queue_size=args.queue_size,
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
        )).start()
        url = server.url
    elif not url:
        print("error: pass --url or --inproc")
        return 1

    try:
        report = run_loadtest(
            url,
            rate=args.rate,
            duration_s=args.duration,
            shapes=shapes,
            dtype=args.dtype,
            tiles=args.tiles,
            connections=args.connections,
            batch=args.max_batch,
            seed=args.seed,
            reference=not args.no_reference,
            verify_every=args.verify_every,
            interim_every_s=args.interim_every,
        )
    finally:
        summary = server.shutdown() if server is not None else None

    if args.trace_out:
        from .trace import spans
        from .trace.export import to_chrome_trace, validate_chrome_trace

        doc = to_chrome_trace(spans.tracer.snapshot())
        counts = validate_chrome_trace(doc)
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        print(f"wrote trace {args.trace_out} "
              f"({counts.get('X', 0)} spans, {counts.get('pids', 1)} pids, "
              f"{spans.tracer.dropped} dropped)")

    print(format_report(report))
    if summary is not None:
        print(
            f"  shutdown  accepted={summary['accepted']} "
            f"responded={summary['responded']} dropped={summary['dropped']} "
            f"shm_leaked={summary['shm_leaked']}"
        )
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))

    failed = []
    if report.verify_failures:
        failed.append(f"{report.verify_failures} responses failed verification")
    if report.errors:
        failed.append(f"{report.errors} requests errored")
    if summary is not None and summary["dropped"]:
        failed.append(f"{summary['dropped']} accepted requests dropped")
    if summary is not None and summary["shm_leaked"]:
        failed.append(
            f"{summary['shm_leaked']} shared-memory segment(s) leaked"
        )
    if args.min_efficiency is not None and report.efficiency < args.min_efficiency:
        failed.append(
            f"efficiency {report.efficiency:.1%} < floor {args.min_efficiency:.1%}"
        )
    if (
        args.min_batch_speedup is not None
        and report.batched_speedup < args.min_batch_speedup
    ):
        failed.append(
            f"batched speedup {report.batched_speedup:.2f}x < floor "
            f"{args.min_batch_speedup:.2f}x"
        )
    for reason in failed:
        print(f"FAILED: {reason}")
    if not failed:
        print("ok")
    return 1 if failed else 0


def _add_file_transpose_args(p: argparse.ArgumentParser) -> None:
    """Shared flags of ``transpose`` and its explicit alias ``transpose-file``."""
    p.add_argument("file")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--dtype", default="float64")
    p.add_argument("--order", choices=["C", "F"], default="C")
    p.add_argument("--algorithm", choices=["auto", "c2r", "r2c"], default="auto")
    p.add_argument(
        "--stream",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="run band-by-band under a bounded resident window (default: "
        "on); --no-stream loads the whole file into RAM (reference path)",
    )
    p.add_argument(
        "--window-bytes",
        default="",
        help="resident byte budget per band for --stream, k/m/g suffixes "
        "accepted (default: $REPRO_STREAM_WINDOW or 256m)",
    )
    p.add_argument("--threads", type=int, default=1,
                   help=">1 runs the chunked passes on a thread pool within "
                   "each band")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="In-place matrix transposition (PPoPP 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="analyze a matrix shape")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--itemsize", type=int, default=8)
    p.add_argument(
        "--cycle-limit",
        type=int,
        default=1_000_000,
        help="max elements for exact cycle-profile computation",
    )
    p.add_argument(
        "--breakdown", action="store_true", help="print the per-pass cost model"
    )
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("transpose", help="transpose a raw binary file in place")
    _add_file_transpose_args(p)
    p.set_defaults(fn=_cmd_transpose)

    p = sub.add_parser(
        "convert", help="convert an AoS binary file between layouts in place"
    )
    p.add_argument("file")
    p.add_argument("n", type=int, help="number of structs")
    p.add_argument("s", type=int, help="fields per struct")
    p.add_argument(
        "--to", choices=["soa", "aos", "asta", "unasta"], default="soa"
    )
    p.add_argument("--dtype", default="float64")
    p.add_argument("--tile", type=int, default=32)
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser(
        "transpose-file",
        help="out-of-core in-place transpose of a raw binary matrix file",
    )
    _add_file_transpose_args(p)
    p.set_defaults(fn=_cmd_transpose)

    p = sub.add_parser("bench", help="quick wall-clock benchmark")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--threads", type=int, default=None,
                   help="worker count (default: os.cpu_count(), capped)")
    p.add_argument("--repeats", type=int, default=3)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser(
        "landscape", help="print the modeled throughput landscape (Fig. 4-5)"
    )
    p.add_argument("--algorithm", choices=["c2r", "r2c"], default="c2r")
    p.add_argument("--lo", type=int, default=1000)
    p.add_argument("--hi", type=int, default=25000)
    p.add_argument("--cells", type=int, default=6)
    p.add_argument("--itemsize", type=int, default=8)
    p.set_defaults(fn=_cmd_landscape)

    p = sub.add_parser("selftest", help="validate every transposer")
    p.add_argument("--count", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None,
                   help="parallel-candidate worker count "
                   "(default: os.cpu_count(), capped)")
    p.set_defaults(fn=_cmd_selftest)

    p = sub.add_parser(
        "stats", help="print a JSON snapshot of the instrumented runtime"
    )
    p.add_argument(
        "--exercise",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="run a small repeated-shape workload first so the snapshot "
        "shows live per-pass timings and cache hits (default: on)",
    )
    p.add_argument(
        "--shapes",
        default="64x96,96x64,128x128",
        help="comma-separated MxN shapes for --exercise",
    )
    p.add_argument(
        "--repeats", type=int, default=4, help="calls per shape for --exercise"
    )
    p.add_argument(
        "--reset",
        action="store_true",
        help="clear metrics and the plan cache before exercising",
    )
    p.add_argument("--indent", type=int, default=2)
    p.add_argument("--output", help="write the snapshot to a file instead of stdout")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser(
        "analyze",
        help="prove plan bijectivity, schedule race-freedom and lint invariants",
    )
    p.add_argument("--m-max", type=int, default=64, help="lattice rows bound")
    p.add_argument("--n-max", type=int, default=64, help="lattice cols bound")
    p.add_argument(
        "--threads",
        default="",
        help="comma-separated thread counts for the race sweep (default 1,2,4,8)",
    )
    p.add_argument(
        "--no-lint", action="store_true", help="skip the AST lint pass"
    )
    p.add_argument(
        "--no-fastdiv",
        action="store_true",
        help="skip the magic-number division cross-check",
    )
    p.add_argument(
        "--plan-objects",
        action="store_true",
        help="also execute a real TransposePlan per shape (slower)",
    )
    p.add_argument(
        "--native",
        action="store_true",
        help="abstractly interpret the generated native kernels for the CI "
        "config sweep (source-level: no compiler needed)",
    )
    p.add_argument(
        "--native-shapes",
        default="",
        help="comma-separated kernel configs MxN[:ORDER[:ITEMSIZE]] "
        "(e.g. 256x384,256x384:F,12x18:C:4); implies --native",
    )
    p.add_argument(
        "--mutation",
        action="store_true",
        help="run the codegen mutation-testing harness (the verifier must "
        "kill every injected fault)",
    )
    p.add_argument(
        "--progress", action="store_true", help="print lattice progress to stderr"
    )
    p.add_argument("--verbose", action="store_true", help="print the full JSON report")
    p.add_argument("--indent", type=int, default=2)
    p.add_argument("--output", help="write the JSON report to a file")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser(
        "trace", help="run a traced workload and export the structured spans"
    )
    p.add_argument(
        "--shape",
        default="512x768",
        help="comma-separated MxN shapes to transpose under tracing",
    )
    p.add_argument(
        "--format",
        choices=["chrome", "tree", "prometheus"],
        default="chrome",
        help="chrome = Perfetto-loadable JSON, tree = per-thread text tree, "
        "prometheus = text-format counters and latency histograms",
    )
    p.add_argument("--threads", type=int, default=1,
                   help="also run the parallel transposer (worker.chunk lanes)")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument(
        "--algorithm", choices=["auto", "c2r", "r2c"], default="auto"
    )
    p.add_argument("--indent", type=int, default=None)
    p.add_argument("--out", help="write the export to a file instead of stdout")
    p.add_argument("--input",
                   help="read an exported Chrome trace instead of running a "
                   "workload (for --request lookup or a tree dump)")
    p.add_argument("--request",
                   help="print one request's span tree by "
                   "trace_id (requires --input)")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "profile",
        help="per-pass achieved bandwidth (GB/s and memcpy fraction)",
    )
    p.add_argument(
        "--shape",
        default="512x768,768x512",
        help="comma-separated MxN shapes to profile",
    )
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--dtype", default="float64")
    p.add_argument(
        "--algorithm", choices=["auto", "c2r", "r2c"], default="auto"
    )
    p.add_argument(
        "--backend", choices=["auto", "native", "numpy"], default=None,
        help="execution engine: compiled native kernels or numpy gathers "
             "(default: auto-select)",
    )
    p.add_argument("--json", action="store_true",
                   help="emit the profiles as JSON instead of a table")
    p.add_argument("--indent", type=int, default=2)
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser(
        "serve", help="run the HTTP transposition service (drains on SIGTERM)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8077,
                   help="0 picks an ephemeral port (printed at startup)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker count (default: os.cpu_count(), capped)")
    p.add_argument("--tenant-rate", type=float, default=None,
                   help="per-tenant admission quota in matrices/s for a "
                   "weight-1.0 tenant (X-Repro-Tenant header; unset = "
                   "quotas off)")
    p.add_argument("--tenant-burst-s", type=float, default=2.0,
                   help="tenant token-bucket burst, in seconds of refill")
    p.add_argument("--tenant-weights", default="",
                   help='weighted admission shares, e.g. "gold=4,free=1" '
                   "(unlisted tenants weigh 1.0)")
    p.add_argument("--queue-size", type=int, default=512,
                   help="admission-control bound; full -> HTTP 429 with a "
                   "depth/drain-rate-computed Retry-After")
    p.add_argument("--max-batch", type=int, default=32,
                   help="largest same-shape group one dispatch coalesces")
    p.add_argument("--max-wait-ms", type=float, default=2.0,
                   help="longest a request waits for batch-mates")
    p.add_argument("--request-timeout", type=float, default=30.0,
                   help="server-side cap on one request's total time (s)")
    p.add_argument("--max-seconds", type=float, default=0.0,
                   help="exit (gracefully) after this long; 0 = run until signal")
    p.add_argument("--slo-p99-ms", type=float, default=50.0,
                   help="windowed p99 latency objective for /statusz + /metrics")
    p.add_argument("--slo-error-budget", type=float, default=0.01,
                   help="error budget the SLO burn rate is measured against")
    p.add_argument("--trace-out", default="",
                   help="enable tracing and write the Chrome trace (one "
                   "lane per thread) to this file at shutdown")
    p.add_argument("--verbose", action="store_true",
                   help="log every HTTP request to stderr")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "loadtest",
        help="open-loop Poisson load generator + serving-efficiency report",
    )
    p.add_argument("--url", default="",
                   help="target server, e.g. http://127.0.0.1:8077")
    p.add_argument("--inproc", action="store_true",
                   help="spin up an in-process server on an ephemeral port")
    p.add_argument("--rate", type=float, default=None,
                   help="offered matrices/s, Poisson arrivals (default: "
                   "the direct-call ceiling, measured before the run)")
    p.add_argument("--duration", type=float, default=5.0, help="seconds of load")
    p.add_argument("--shapes", default="256x384",
                   help="workload mix, e.g. 256x384:0.8,128x192:0.2")
    p.add_argument("--dtype", default="uint8",
                   help="element dtype (uint8 = image-tile workload)")
    p.add_argument("--tiles", type=int, default=4,
                   help="matrices per request (X-Repro-Batch client-side "
                   "micro-batching)")
    p.add_argument("--connections", type=int, default=16,
                   help="persistent client connections")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=None,
                   help="--inproc: worker count (default: os.cpu_count(), "
                   "capped)")
    p.add_argument("--queue-size", type=int, default=512, help="--inproc: queue bound")
    p.add_argument("--max-batch", type=int, default=32)
    p.add_argument("--max-wait-ms", type=float, default=0.5)
    p.add_argument("--no-reference", action="store_true",
                   help="skip the in-process reference runs (the ceiling "
                   "still runs when --rate is not given)")
    p.add_argument("--verify-every", type=int, default=1,
                   help="byte-verify every Nth response per shape "
                   "(1 = verify all)")
    p.add_argument("--min-efficiency", type=float, default=None,
                   help="fail unless achieved/ceiling >= this fraction")
    p.add_argument("--min-batch-speedup", type=float, default=None,
                   help="fail unless coalesced/naive >= this factor")
    p.add_argument("--interim-every", type=float, default=2.0,
                   help="seconds between live progress lines on stderr "
                   "during the run (0 disables)")
    p.add_argument("--trace-out", default="",
                   help="--inproc: enable tracing and write the combined "
                   "Chrome trace (client+server+workers) at shutdown")
    p.add_argument("--json", action="store_true",
                   help="also print the report as JSON")
    p.set_defaults(fn=_cmd_loadtest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
