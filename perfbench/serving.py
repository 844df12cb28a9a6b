"""The serve-mixed workload: ``repro serve`` in a subprocess, driven open loop.

This process is the load generator.  It starts the server with its defaults
(native on, 2 worker threads, 1 shard), warms one request per shape as part
of set-up, and saturates both persistent connections closed loop; on the
last server it then offers Poisson traffic over them at the fixed ``lo`` and
``hi`` rates and climbs a rate ladder.  Each request is timed from when it
was due (sent, in the closed loop), and every response is checked
byte-exact.
"""

from __future__ import annotations

import http.client
import json
import math
import re
import signal
import subprocess
import sys
import threading
from time import monotonic, sleep

from common import (
    LATENCY_LIMIT_MS,
    SERVE_MIX,
    SERVE_RATES,
    SETUPS,
    TILES,
    generate,
    median,
    tail,
    vm_hwm_mb,
)

CONNECTIONS = 2
#: shares of ``--seconds``: the closed loop (run on every server), the
#: fixed-rate windows and the rate ladder (run on the last server)
SHARES = {"saturate": 0.2, "lo": 0.1, "hi": 0.2, "ladder": 0.3}
#: latency figures are medians over this many slices of a window
SLICES = 4
#: ladder rungs after the fixed rates, and the climb factor between them
PROBES = 5
CLIMB = 1.25


class Traffic:
    """Request bodies and expected responses, one per shape of the mix."""

    def __init__(self, seed: int):
        import numpy as np

        self.bodies, self.expected, self.headers = [], [], []
        self.weights = np.array([w for *_, w in SERVE_MIX])
        mat_bytes = []
        for i, (m, n, dt, _w) in enumerate(SERVE_MIX):
            a = generate(seed, i, TILES * m * n, dt).reshape(TILES, m, n)
            self.bodies.append(a.tobytes())
            self.expected.append(np.ascontiguousarray(a.transpose(0, 2, 1)).tobytes())
            mat_bytes.append(m * n * a.itemsize)
            self.headers.append({
                "X-Repro-Rows": str(m), "X-Repro-Cols": str(n),
                "X-Repro-Dtype": dt, "X-Repro-Batch": str(TILES),
                "Content-Type": "application/octet-stream",
            })
        self.mean_mat_bytes = float(self.weights @ np.array(mat_bytes))


class Server:
    """One server process; ``setup_s`` runs from spawn to the warm replies."""

    def __init__(self, cmd, env, cwd):
        self.t0 = monotonic()
        self.proc = subprocess.Popen(
            cmd, env=env, cwd=cwd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
        )
        line = self.proc.stdout.readline()
        found = re.search(r"http://([\d.]+):(\d+)", line)
        if not found:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.host, self.port = found.group(1), int(found.group(2))

    def scrape(self) -> dict:
        """The server's /metrics as ``{series: value}``."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode()
        finally:
            conn.close()
        out = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                out[name] = float(value)
        return out

    def stop(self) -> str:
        """SIGTERM (the server drains), wait, and return its stdout."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        return out or ""


def _run_clients(server: Server, traffic: Traffic, checker, take) -> list:
    """``CONNECTIONS`` client threads, each on one persistent connection.
    ``take()`` hands out ``(due, shape)`` jobs until it returns ``None``; a
    job is sent once due.  Returns ``(due, sent, done, ok)`` per request,
    times from ``monotonic()``, in order of due time."""
    results: list = []
    lock = threading.Lock()

    def client() -> None:
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            while (job := take()) is not None:
                due, s = job
                delay = due - monotonic()
                if delay > 0:
                    sleep(delay)
                sent = monotonic()
                try:
                    conn.request("POST", "/transpose", body=traffic.bodies[s],
                                 headers=traffic.headers[s])
                    resp = conn.getresponse()
                    data, status = resp.read(), resp.status
                except (http.client.HTTPException, OSError):
                    conn.close()
                    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
                    data, status = b"", None
                done = monotonic()
                ok = checker.check_bytes(status, data, traffic.expected[s])
                with lock:
                    results.append((due, sent, done, ok))
        finally:
            conn.close()

    threads = [threading.Thread(target=client, daemon=True) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    if any(t.is_alive() for t in threads):
        raise RuntimeError("load clients did not finish")
    return sorted(results)


def drive(server, traffic, checker, rate: float, seconds: float, rng) -> list:
    """Open loop: offer ``rate`` matrices/s as Poisson arrivals for
    ``seconds``."""
    gaps = rng.exponential(TILES / rate, size=int(rate / TILES * seconds * 2) + 16)
    offsets = gaps.cumsum()
    offsets = offsets[offsets < seconds]
    shapes = iter(rng.choice(len(traffic.bodies), size=len(offsets), p=traffic.weights))
    t0 = monotonic() + 0.02
    jobs = iter(zip(t0 + offsets, shapes))
    lock = threading.Lock()

    def take():
        with lock:
            return next(jobs, None)

    results = _run_clients(server, traffic, checker, take)
    if len(results) != len(offsets):
        raise RuntimeError("requests were lost by the load clients")
    return results


def saturate(server, traffic, checker, seconds: float, rng) -> tuple[float, list]:
    """Closed loop: both connections send back to back for ``seconds``;
    returns the matrices served per second and the per-request records
    (each due when sent)."""
    shapes = iter(rng.choice(len(traffic.bodies), size=1 << 20, p=traffic.weights))
    lock = threading.Lock()
    t0 = monotonic()
    deadline = t0 + seconds

    def take():
        with lock:
            now = monotonic()
            return (now, next(shapes)) if now < deadline else None

    results = _run_clients(server, traffic, checker, take)
    served = sum(1 for r in results if r[3])
    return TILES * served / (max(r[2] for r in results) - t0), results


def latency_ms(results) -> list[float]:
    return [1e3 * (done - due) for due, _s, done, _ok in results]


def passes(results) -> bool:
    """A rung passes when every request succeeded, the tail meets the
    latency limit and the backlog at the end drains within that limit."""
    if not results or not all(r[3] for r in results):
        return False
    last_due = max(r[0] for r in results)
    last_done = max(r[2] for r in results)
    drained = 1e3 * (last_done - last_due) <= LATENCY_LIMIT_MS
    return tail(latency_ms(results))[0] <= LATENCY_LIMIT_MS and drained


def ladder(server, traffic, checker, start: float, budget_s: float, rng) -> float:
    """Climb from ``start`` (a passing rate) by ``CLIMB`` until a rung fails,
    then bisect; returns the highest passing rate."""
    good, bad = start, None
    for _ in range(PROBES):
        rate = good * CLIMB if bad is None else math.sqrt(good * bad)
        if passes(drive(server, traffic, checker, rate, budget_s / PROBES, rng)):
            good = rate
        else:
            bad = rate
        sleep(0.1)
    return good


def hist(snap: dict, op: str) -> tuple[float, float]:
    return (snap.get(f'repro_latency_seconds_sum{{op="{op}"}}', 0.0),
            snap.get(f'repro_latency_seconds_count{{op="{op}"}}', 0.0))


def window_layers(before: dict, after: dict, results) -> dict:
    """Serving-stage figures over one load window, from /metrics deltas."""
    def delta(key):
        return after.get(key, 0.0) - before.get(key, 0.0)

    def mean_ms(op):
        (s1, c1), (s0, c0) = hist(after, op), hist(before, op)
        return 1e3 * (s1 - s0) / (c1 - c0) if c1 > c0 else 0.0

    client_ms = [1e3 * (done - sent) for _d, sent, done, _ok in results]
    e2e = mean_ms("serve.e2e")
    batches = delta("repro_serve_batch_size_count")
    return {
        "serve.queue_wait_ms": mean_ms("serve.queue_wait"),
        "serve.execute_ms": mean_ms("serve.execute"),
        "serve.server_e2e_ms": e2e,
        "serve.wire_ms": sum(client_ms) / len(client_ms) - e2e,
        "serve.batch_size_mean": delta("repro_serve_batch_size_sum") / batches if batches else 0.0,
        "serve.groups": hist(after, "serve.execute")[1] - hist(before, "serve.execute")[1],
        "serve.rejected": sum(delta(f"repro_serve_rejected_{k}_total")
                              for k in ("full", "quota", "closed")),
        "loadgen.send_lag_ms": 1e3 * sum(sent - due for due, sent, _d, _ok in results) / len(results),
    }


def run(args, root, work, child_env, checker) -> dict:
    """``SETUPS`` fresh servers: each is set up and runs the closed loop, the
    last one also the open-loop phases.  Closed-loop figures are medians
    over the servers, so a disturbance of a few seconds moves one of them."""
    import numpy as np

    traffic = Traffic(args.seed)
    rng = np.random.default_rng([args.seed, 99])
    seconds = args.seconds
    setups, closed, out = [], [], {}
    for i in range(SETUPS):
        last = i == SETUPS - 1
        traced = args.trace and last
        cmd = ([sys.executable, str(root / "perfbench" / "serve_traced.py")] if traced
               else [sys.executable, "-m", "repro", "serve"]) + ["--port", "0"]
        server = Server(cmd, child_env(work / f"native-{i}"), root)
        try:
            for s in range(len(traffic.bodies)):
                if not drive_one(server, traffic, checker, s):
                    raise RuntimeError("warm-up request failed")
            setups.append(monotonic() - server.t0)
            rate, res = saturate(server, traffic, checker, SHARES["saturate"] * seconds, rng)
            closed.append((rate, *slice_stats(res)))
            if last:
                out.update(measure(server, traffic, checker, seconds, rng))
                out["rss_mb"] = vm_hwm_mb(server.proc.pid)
        finally:
            stdout = server.stop()
        if traced:
            out["server"] = json.loads(stdout.strip().splitlines()[-1])
    out["setup_s"] = median(setups)
    out["saturated_mat_s"] = median([c[0] for c in closed])
    out["saturated"] = (median([c[1] for c in closed]), median([c[2] for c in closed]),
                        closed[0][3], closed[0][4])
    if args.trace:  # the traced server's closed loop against the untraced ones
        out["trace_overhead"] = closed[-1][1] / median([c[1] for c in closed[:-1]]) - 1.0
    out["mat_bytes"] = traffic.mean_mat_bytes
    return out


def drive_one(server, traffic, checker, s) -> bool:
    conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
    try:
        conn.request("POST", "/transpose", body=traffic.bodies[s], headers=traffic.headers[s])
        resp = conn.getresponse()
        return checker.check_bytes(resp.status, resp.read(), traffic.expected[s], measured=False)
    finally:
        conn.close()


def slice_stats(results) -> tuple[float, float, float, int]:
    """``(p50, tail, tail percentile, samples per slice)``: the median over
    up to ``SLICES`` equal slices of consecutive requests of each slice's
    p50 and tail, so one stall burst moves one slice and not the figure."""
    lat = latency_ms(results)
    k = max(1, len(lat) // max(1, min(SLICES, len(lat) // 100)))
    parts = [lat[i:i + k] for i in range(0, len(lat) - k + 1, k)]
    tails = [tail(p) for p in parts]
    return median([median(p) for p in parts]), median([t[0] for t in tails]), tails[0][1], k


def measure(server, traffic, checker, seconds, rng) -> dict:
    """The fixed-rate windows, then the ladder."""
    out = {"windows": {}}
    for name, rate in SERVE_RATES.items():
        before = server.scrape()
        res = drive(server, traffic, checker, rate, SHARES[name] * seconds, rng)
        after = server.scrape()
        out["windows"][name] = {
            "stats": slice_stats(res), "passed": passes(res),
            "layers": window_layers(before, after, res),
        }
        sleep(0.1)
    start = max([r for n, r in SERVE_RATES.items() if out["windows"][n]["passed"]] or
                [SERVE_RATES["lo"] / CLIMB])
    out["max_rate_mat_s"] = ladder(server, traffic, checker, start, SHARES["ladder"] * seconds, rng)
    final = server.scrape()
    out["counters"] = {
        "native.calls": final.get("repro_native_calls_total", 0.0),
        "native.fallback": final.get("repro_native_fallback_total", 0.0),
    }
    out["execute_s"] = hist(final, "serve.execute")[0]
    return out
