"""Open-loop load generator and serving-efficiency report.

Open-loop means arrivals are scheduled ahead of time from a Poisson
process at the offered rate and *do not* slow down when the server lags —
the honest way to measure a service under overload (a closed loop would
self-throttle and hide queueing collapse).  Latency is measured from the
*scheduled* arrival, so schedule slippage counts against the server.

The report situates the measured throughput between two in-process
reference points on the same shape/dtype:

``ceiling_rps``
    Direct ``batched_transpose_inplace`` on a resident batch — the
    hardware/kernel limit with zero serving overhead.  The acceptance
    bar is ``achieved >= 0.6 * ceiling`` on a same-shape workload.  By
    default the offered rate is this ceiling, measured before the run,
    so the efficiency reads how much of it the server serves and not a
    fixed offer: a fixed rate caps the efficiency at ``rate / ceiling``
    however fast the server is.
``naive_rps``
    One-request-one-plan serving: every request builds a fresh
    :class:`~repro.core.plan.TransposePlan` (no cache) and executes it
    alone.  The coalesced path (staging copy + shared batched plan) must
    beat this by >= 2x — that is the speedup batching exists to buy.
"""

from __future__ import annotations

import http.client
import threading
from dataclasses import dataclass, field
from time import monotonic, perf_counter, sleep
from urllib.parse import urlsplit

import numpy as np

from .slo import nearest_rank

__all__ = [
    "ShapeMix",
    "parse_shape_mix",
    "poisson_arrivals",
    "measure_ceiling_rps",
    "measure_coalesced_rps",
    "measure_naive_rps",
    "LoadtestReport",
    "run_loadtest",
    "format_report",
]


@dataclass(frozen=True)
class ShapeMix:
    """One weighted shape in the workload mix."""

    m: int
    n: int
    weight: float


def parse_shape_mix(spec: str) -> list[ShapeMix]:
    """Parse ``"128x192:0.8,64x96:0.2"`` (weights optional, default 1)."""
    mix: list[ShapeMix] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        shape, _, weight = part.partition(":")
        m, _, n = shape.partition("x")
        try:
            mix.append(ShapeMix(int(m), int(n), float(weight) if weight else 1.0))
        except ValueError as exc:
            raise ValueError(
                f"bad shape-mix entry {part!r}; expected MxN[:weight]"
            ) from exc
    if not mix:
        raise ValueError("empty shape mix")
    total = sum(s.weight for s in mix)
    if total <= 0:
        raise ValueError("shape-mix weights must sum to > 0")
    return [ShapeMix(s.m, s.n, s.weight / total) for s in mix]


def poisson_arrivals(
    rate: float, duration_s: float, rng: np.random.Generator
) -> np.ndarray:
    """Arrival offsets (seconds) of a Poisson process over ``duration_s``."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    # Draw enough exponential gaps to cover the window, then trim.
    n_expect = max(int(rate * duration_s * 1.5) + 16, 16)
    gaps = rng.exponential(1.0 / rate, size=n_expect)
    arrivals = np.cumsum(gaps)
    while arrivals[-1] < duration_s:
        more = rng.exponential(1.0 / rate, size=n_expect)
        arrivals = np.concatenate([arrivals, arrivals[-1] + np.cumsum(more)])
    return arrivals[arrivals < duration_s]


# ---------------------------------------------------------------------------
# In-process reference points
# ---------------------------------------------------------------------------

def measure_ceiling_rps(
    m: int, n: int, dtype="float64", *, batch: int = 32, seconds: float = 0.5
) -> float:
    """Direct-call ceiling: resident-batch ``batched_transpose_inplace``."""
    from ..core.batched import batched_transpose_inplace

    dtype = np.dtype(dtype)
    staging = np.arange(batch * m * n, dtype=np.float64).astype(dtype)
    staging = staging.reshape(batch, m * n)
    batched_transpose_inplace(staging, m, n)  # warm the plan cache
    done = 0
    t0 = perf_counter()
    while perf_counter() - t0 < seconds:
        batched_transpose_inplace(staging, m, n)
        done += batch
    return done / (perf_counter() - t0)


def measure_coalesced_rps(
    m: int, n: int, dtype="float64", *, batch: int = 32, seconds: float = 0.5
) -> float:
    """The server's coalesced path: per-request staging copy + shared plan."""
    from ..core.batched import batched_transpose_inplace

    dtype = np.dtype(dtype)
    requests = [
        np.arange(m * n, dtype=np.float64).astype(dtype) for _ in range(batch)
    ]
    staging = np.empty((batch, m * n), dtype=dtype)
    batched_transpose_inplace(staging, m, n)  # warm the plan cache
    done = 0
    t0 = perf_counter()
    while perf_counter() - t0 < seconds:
        for i, r in enumerate(requests):
            staging[i] = r
        batched_transpose_inplace(staging, m, n)
        done += batch
    return done / (perf_counter() - t0)


def measure_naive_rps(
    m: int, n: int, dtype="float64", *, seconds: float = 0.5
) -> float:
    """One-request-one-plan: fresh plan build + singleton execute each time."""
    from ..core.plan import TransposePlan

    dtype = np.dtype(dtype)
    buf = np.arange(m * n, dtype=np.float64).astype(dtype)
    done = 0
    t0 = perf_counter()
    while perf_counter() - t0 < seconds:
        plan = TransposePlan(m, n)
        plan.execute(buf)
        done += 1
    return done / (perf_counter() - t0)


# ---------------------------------------------------------------------------
# The load run
# ---------------------------------------------------------------------------

@dataclass
class LoadtestReport:
    """Everything ``repro loadtest`` prints (and CI asserts on)."""

    url: str
    duration_s: float
    offered_rate: float
    shapes: list[ShapeMix]
    dtype: str
    tiles: int = 1
    completed: int = 0
    rejected: int = 0          # 429 admission rejects
    errors: int = 0            # anything else non-200
    verified: int = 0          # responses compared byte-for-byte
    verify_failures: int = 0
    achieved_rps: float = 0.0
    latencies_ms: dict = field(default_factory=dict)  # p50/p90/p99/mean/max
    #: per-shape percentiles keyed "MxN" (same p50/p90/p99/mean/max dicts)
    per_shape_latencies_ms: dict = field(default_factory=dict)
    #: the slowest 200 of the run: {"trace_id", "latency_ms", "shape"} —
    #: feed the trace_id to ``repro trace --request`` for post-hoc lookup
    worst_request: dict = field(default_factory=dict)
    ceiling_rps: float = 0.0
    coalesced_rps: float = 0.0
    naive_rps: float = 0.0

    @property
    def efficiency(self) -> float:
        """Served throughput as a fraction of the direct-call ceiling."""
        return self.achieved_rps / self.ceiling_rps if self.ceiling_rps else 0.0

    @property
    def batched_speedup(self) -> float:
        """Coalesced batched execution vs one-request-one-plan serving."""
        return self.coalesced_rps / self.naive_rps if self.naive_rps else 0.0

    def as_dict(self) -> dict:
        return {
            "url": self.url,
            "duration_s": self.duration_s,
            "offered_rate": self.offered_rate,
            "shapes": [f"{s.m}x{s.n}:{s.weight:.3f}" for s in self.shapes],
            "dtype": self.dtype,
            "tiles": self.tiles,
            "completed": self.completed,
            "rejected": self.rejected,
            "errors": self.errors,
            "verified": self.verified,
            "verify_failures": self.verify_failures,
            "achieved_rps": self.achieved_rps,
            "latencies_ms": dict(self.latencies_ms),
            "per_shape_latencies_ms": {
                k: dict(v) for k, v in self.per_shape_latencies_ms.items()
            },
            "worst_request": dict(self.worst_request),
            "ceiling_rps": self.ceiling_rps,
            "coalesced_rps": self.coalesced_rps,
            "naive_rps": self.naive_rps,
            "efficiency": self.efficiency,
            "batched_speedup": self.batched_speedup,
        }


class _Client(threading.Thread):
    """One persistent-connection worker pulling from the shared schedule."""

    def __init__(self, ctx: "_RunContext", index: int):
        super().__init__(name=f"repro-loadgen-{index}", daemon=True)
        self.ctx = ctx

    def run(self) -> None:
        ctx = self.ctx
        conn = http.client.HTTPConnection(ctx.host, ctx.port, timeout=30)
        try:
            while True:
                with ctx.lock:
                    i = ctx.next_index
                    ctx.next_index += 1
                if i >= len(ctx.arrivals):
                    return
                due = ctx.t0 + ctx.arrivals[i]
                delay = due - monotonic()
                if delay > 0:
                    sleep(delay)
                shape_i = ctx.shape_of[i]
                body, base_headers = ctx.payloads[shape_i]
                # Deterministic per-request trace id: lets the report name
                # the worst request and a later `repro trace --request`
                # find its span tree in the server's exported trace.
                trace_id = f"lt-{ctx.seed:x}-{i:06x}"
                headers = dict(base_headers)
                headers["X-Repro-Trace-Id"] = trace_id
                try:
                    conn.request("POST", "/transpose", body=body, headers=headers)
                    resp = conn.getresponse()
                    data = resp.read()
                    status = resp.status
                except (http.client.HTTPException, OSError):
                    conn.close()
                    conn = http.client.HTTPConnection(
                        ctx.host, ctx.port, timeout=30
                    )
                    with ctx.lock:
                        ctx.errors += 1
                    continue
                latency = monotonic() - due
                check = False
                with ctx.lock:
                    if status == 200:
                        ctx.completed += 1
                        ctx.latencies.append(latency)
                        ctx.latencies_by_shape[shape_i].append(latency)
                        if latency > ctx.worst[0]:
                            ctx.worst = (
                                latency, trace_id, ctx.shape_names[shape_i]
                            )
                        # Sample responses for verification across the whole
                        # run — corruption that only appears once coalesced
                        # batches form (i.e. after warm-up) must not slip
                        # past the gate.
                        seen = ctx.verify_counts[shape_i]
                        ctx.verify_counts[shape_i] = seen + 1
                        check = seen % ctx.verify_every == 0
                    elif status == 429:
                        ctx.rejected += 1
                    else:
                        ctx.errors += 1
                if check:
                    # Compare outside the lock: a body-sized memcmp per
                    # sampled response must not serialize the clients.
                    ok = data == ctx.expected[shape_i]
                    with ctx.lock:
                        ctx.verified += 1
                        if not ok:
                            ctx.verify_failures += 1
        finally:
            conn.close()


class _RunContext:
    """Shared mutable state for one load run (guarded by ``lock``)."""

    def __init__(
        self, host, port, arrivals, shape_of, payloads, expected, dtype,
        verify_every=1, shape_names=(), seed=0,
    ):
        self.host, self.port = host, port
        self.arrivals = arrivals
        self.shape_of = shape_of
        self.payloads = payloads
        self.expected = expected
        self.dtype = dtype
        self.verify_every = max(1, int(verify_every))
        self.shape_names = list(shape_names) or [
            str(i) for i in range(len(payloads))
        ]
        self.seed = int(seed)
        self.lock = threading.Lock()
        self.next_index = 0
        self.completed = 0
        self.rejected = 0
        self.errors = 0
        self.verified = 0
        self.verify_failures = 0
        #: per-shape count of 200s seen, for the every-Nth sampling
        self.verify_counts = [0] * len(payloads)
        self.latencies: list[float] = []
        self.latencies_by_shape: list[list[float]] = [
            [] for _ in payloads
        ]
        #: slowest 200 so far: (latency_s, trace_id, shape_name)
        self.worst: tuple = (0.0, "", "")
        self.t0 = 0.0


def _print_interim(line: str) -> None:
    import sys

    print(line, file=sys.stderr, flush=True)


def _percentiles(latencies: list[float]) -> dict:
    """p50/p90/p99 by the serving layer's shared nearest-rank definition
    (:func:`repro.serve.slo.nearest_rank`), so this report and ``/statusz``
    agree on the same traffic; interpolated ``np.percentile`` previously
    made them drift apart."""
    if not latencies:
        return {"p50": 0.0, "p90": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    arr = [lat * 1e3 for lat in latencies]
    return {
        "p50": nearest_rank(arr, 50),
        "p90": nearest_rank(arr, 90),
        "p99": nearest_rank(arr, 99),
        "mean": float(np.mean(arr)),
        "max": float(np.max(arr)),
    }


def run_loadtest(
    url: str,
    *,
    rate: float | None = None,
    duration_s: float = 5.0,
    shapes: list[ShapeMix] | None = None,
    dtype: str = "uint8",
    tiles: int = 4,
    connections: int = 16,
    batch: int = 32,
    seed: int = 0,
    reference: bool = True,
    verify_every: int = 1,
    interim_every_s: float = 0.0,
    interim_sink=None,
) -> LoadtestReport:
    """Drive ``url`` with an open-loop Poisson workload; return the report.

    ``rate`` is offered *matrices* per second, so it compares directly
    against the per-matrix ceiling; each HTTP request carries ``tiles``
    same-shape matrices (``X-Repro-Batch`` client-side micro-batching),
    i.e. requests arrive at ``rate / tiles`` per second.  ``None`` offers
    the ceiling of the first shape, measured (and reported) before the
    run whatever ``reference`` says.

    ``verify_every`` samples responses for byte-exact verification: every
    Nth 200 per shape is compared against the precomputed transpose,
    spread across the whole run so post-warm-up corruption (e.g. a bug
    only the coalesced batched path triggers) is caught.  The default of
    1 verifies every response.

    ``reference=True`` also measures the in-process reference rates
    (ceiling / coalesced / naive) for the *first* shape of the mix — skip
    it for pure traffic generation.

    ``interim_every_s > 0`` prints a progress line (completed / achieved /
    p50 / p99 / rejected / errors so far) every that-many seconds during
    the run — to stderr by default, or to ``interim_sink(line)`` — so a
    long run is observable live instead of end-of-run-only.
    """
    # Default workload: 256x384 uint8 image tiles.  Narrow dtypes are the
    # interesting serving regime — the gather kernels are bound by their
    # int64 index maps, so the kernel cost per matrix barely drops while
    # the HTTP bytes shrink 8x vs float64, which is what lets a 1-core
    # box serve a large fraction of the direct-call ceiling.
    mix = shapes or [ShapeMix(256, 384, 1.0)]
    if tiles < 1:
        raise ValueError(f"tiles must be >= 1, got {tiles}")
    parts = urlsplit(url if "//" in url else f"//{url}")
    host, port = parts.hostname or "127.0.0.1", parts.port or 80
    ceiling = 0.0
    if rate is None or reference:
        ceiling = measure_ceiling_rps(mix[0].m, mix[0].n, dtype, batch=batch)
    if rate is None:
        rate = ceiling
    rng = np.random.default_rng(seed)
    arrivals = poisson_arrivals(rate / tiles, duration_s, rng)
    weights = np.array([s.weight for s in mix])
    shape_of = rng.choice(len(mix), size=len(arrivals), p=weights / weights.sum())

    np_dtype = np.dtype(dtype)
    payloads = []
    expected = []
    for s in mix:
        A = rng.random(tiles * s.m * s.n)
        A = (A * 100).astype(np_dtype).reshape(tiles, s.m, s.n)
        headers = {
            "X-Repro-Rows": str(s.m),
            "X-Repro-Cols": str(s.n),
            "X-Repro-Dtype": dtype,
            "X-Repro-Batch": str(tiles),
            "Content-Type": "application/octet-stream",
        }
        payloads.append((A.tobytes(), headers))
        expected.append(
            np.ascontiguousarray(A.transpose(0, 2, 1)).tobytes()
        )

    ctx = _RunContext(
        host, port, arrivals, shape_of, payloads, expected, dtype,
        verify_every=verify_every,
        shape_names=[f"{s.m}x{s.n}" for s in mix],
        seed=seed,
    )
    clients = [_Client(ctx, i) for i in range(connections)]
    done_evt = threading.Event()
    reporter = None
    if interim_every_s and interim_every_s > 0:
        sink = interim_sink or _print_interim

        def _report_progress() -> None:
            while not done_evt.wait(interim_every_s):
                with ctx.lock:
                    completed, rejected = ctx.completed, ctx.rejected
                    errors = ctx.errors
                    lat = list(ctx.latencies)
                elapsed_now = monotonic() - ctx.t0
                pct = _percentiles(lat)
                sink(
                    f"  [t={elapsed_now:5.1f}s] completed={completed} "
                    f"achieved={completed * tiles / elapsed_now:.0f} mat/s "
                    f"p50={pct['p50']:.2f}ms p99={pct['p99']:.2f}ms "
                    f"rejected={rejected} errors={errors}"
                )

        reporter = threading.Thread(
            target=_report_progress, name="repro-loadgen-interim", daemon=True
        )
    ctx.t0 = monotonic()
    for c in clients:
        c.start()
    if reporter is not None:
        reporter.start()
    for c in clients:
        c.join()
    done_evt.set()
    if reporter is not None:
        reporter.join(timeout=1.0)
    elapsed = monotonic() - ctx.t0

    report = LoadtestReport(
        url=url,
        duration_s=elapsed,
        offered_rate=rate,
        shapes=mix,
        dtype=dtype,
        tiles=tiles,
        completed=ctx.completed,
        rejected=ctx.rejected,
        errors=ctx.errors,
        verified=ctx.verified,
        verify_failures=ctx.verify_failures,
        # Matrices per second (tiles per request), apples-to-apples with
        # the per-matrix ceiling.
        achieved_rps=ctx.completed * tiles / elapsed if elapsed > 0 else 0.0,
        latencies_ms=_percentiles(ctx.latencies),
        per_shape_latencies_ms={
            name: _percentiles(lat)
            for name, lat in zip(ctx.shape_names, ctx.latencies_by_shape)
            if lat
        },
        worst_request=(
            {
                "trace_id": ctx.worst[1],
                "latency_ms": ctx.worst[0] * 1e3,
                "shape": ctx.worst[2],
            }
            if ctx.worst[1] else {}
        ),
        ceiling_rps=ceiling,
    )
    if reference:
        s0 = mix[0]
        report.coalesced_rps = measure_coalesced_rps(
            s0.m, s0.n, dtype, batch=batch
        )
        report.naive_rps = measure_naive_rps(s0.m, s0.n, dtype)
    return report


def format_report(report: LoadtestReport) -> str:
    """The human-readable loadtest summary (CI greps these lines)."""
    lat = report.latencies_ms
    mix = ",".join(f"{s.m}x{s.n}:{s.weight:.2f}" for s in report.shapes)
    lines = [
        f"loadtest {report.url}  shapes={mix} dtype={report.dtype} "
        f"tiles/request={report.tiles}",
        f"  offered   {report.offered_rate:8.1f} matrices/s for "
        f"{report.duration_s:.1f}s (open-loop Poisson)",
        f"  completed {report.completed} ok requests "
        f"({report.completed * report.tiles} matrices), "
        f"{report.rejected} rejected (429), "
        f"{report.errors} errors, {report.verify_failures} verify failures "
        f"({report.verified} responses verified byte-exact)",
        f"  achieved  {report.achieved_rps:8.1f} matrices/s",
        f"  latency   p50 {lat.get('p50', 0):7.2f} ms   "
        f"p90 {lat.get('p90', 0):7.2f} ms   p99 {lat.get('p99', 0):7.2f} ms   "
        f"max {lat.get('max', 0):7.2f} ms",
    ]
    for shape, pct in sorted(report.per_shape_latencies_ms.items()):
        lines.append(
            f"  shape {shape:>11}  p50 {pct.get('p50', 0):7.2f} ms   "
            f"p90 {pct.get('p90', 0):7.2f} ms   p99 {pct.get('p99', 0):7.2f} ms"
        )
    if report.worst_request:
        w = report.worst_request
        lines.append(
            f"  worst     {w['latency_ms']:7.2f} ms  shape {w['shape']}  "
            f"trace_id {w['trace_id']}"
        )
    if report.ceiling_rps:
        lines += [
            f"  ceiling   {report.ceiling_rps:8.1f} matrices/s direct "
            f"batched_transpose_inplace -> efficiency {report.efficiency:.1%}",
            f"  batching  coalesced {report.coalesced_rps:8.1f} matrices/s "
            f"vs naive one-request-one-plan {report.naive_rps:8.1f} "
            f"matrices/s -> speedup {report.batched_speedup:.2f}x",
        ]
    return "\n".join(lines)
