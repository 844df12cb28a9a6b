"""Workload definitions and small helpers shared by the benchmark's processes."""

from __future__ import annotations

import json
import math
import statistics
import sys
import threading
import traceback
from time import perf_counter

#: setups per run; each is a fresh process (and, for serving, a fresh
#: server) with a fresh native-artifact directory, so compiles land in it
SETUPS = 3

#: Library workloads: (m, n, dtype) shapes called round-robin.  The three
#: lib-hot plans total 192 MB and stay in the default 256 MiB plan cache;
#: the lib-large plan needs 384 MB of gather maps and is rejected as
#: oversize, so every call rebuilds it.
LIB = {
    "lib-hot": [(3000, 4000, "float32"), (1499, 4000, "float64"), (2000, 3000, "float64")],
    "lib-large": [(6000, 8000, "float32")],
}
LIB_TINY = {
    "lib-hot": [(1000, 1200, "float32"), (499, 1200, "float64"), (600, 900, "float64")],
    "lib-large": [(1200, 1600, "float32")],
}

#: file-stream: (m, n, dtype, window_bytes).  256 MiB through a 64 MiB
#: window, so every pass runs in several bands.
FILE = (8192, 8192, "float32", 64 << 20)
FILE_TINY = (1024, 1024, "float32", 1 << 20)

#: serve-mixed traffic: (m, n, dtype, weight); every request carries TILES
#: matrices.  Two shapes and dtypes so the batcher coalesces two keys.
SERVE_MIX = [(256, 384, "uint8", 0.8), (200, 300, "float32", 0.2)]
TILES = 4
#: the two fixed offered rates, in matrices per second
SERVE_RATES = {"lo": 300.0, "hi": 600.0}
#: the tail-latency limit a ladder rung must meet
LATENCY_LIMIT_MS = 100.0


class Checker:
    """Counts attempted operations and wrong or failed outputs.  With
    ``inject`` it corrupts the first measured output, to prove that a wrong
    result is caught."""

    def __init__(self, inject: bool = False):
        self.attempted = 0
        self.failed = 0
        self.inject = inject
        self._lock = threading.Lock()

    def _count(self, ok: bool) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
        if not ok:
            print("wrong or failed output", file=sys.stderr)
        return ok

    def _take_injection(self, measured: bool) -> bool:
        with self._lock:
            hit, self.inject = self.inject and measured, self.inject and not measured
        return hit

    def check(self, out, expected, measured: bool = True) -> bool:
        """Compare an array output with its expected value."""
        if self._take_injection(measured):
            out.reshape(-1).view("uint8")[0] ^= 0xFF
        return self._count(same_bytes(out, expected))

    def check_bytes(self, status, data: bytes, expected: bytes, measured: bool = True) -> bool:
        """Compare an HTTP reply with its expected body."""
        if data and self._take_injection(measured):
            data = bytes([data[0] ^ 0xFF]) + data[1:]
        return self._count(status == 200 and data == expected)

    def error(self) -> None:
        traceback.print_exc()
        self._count(False)


def generate(seed: int, index: int, count: int, dtype):
    """Deterministic input data for one buffer of a workload."""
    import numpy as np

    rng = np.random.default_rng([seed, index])
    dtype = np.dtype(dtype)
    if dtype.kind == "f":
        return rng.random(count, dtype=dtype)
    return rng.integers(0, 256, count, dtype=dtype)


def same_bytes(a, b) -> bool:
    """Byte-exact comparison of two contiguous arrays."""
    import numpy as np

    if a.nbytes != b.nbytes:
        return False
    for width in (np.uint64, np.uint32, np.uint8):
        if a.nbytes % np.dtype(width).itemsize == 0:
            return bool(np.array_equal(a.reshape(-1).view(width), b.reshape(-1).view(width)))
    return False


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def memcpy_gb_s(nbytes: int, repeats: int = 7) -> float:
    """Median copy bandwidth over a buffer of ``nbytes``, counting the read
    and the write (2 x nbytes per copy), in GB/s."""
    import numpy as np

    src = np.ones(max(1, nbytes // 8), dtype=np.uint64)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        np.copyto(dst, src)
        times.append(perf_counter() - t0)
    return 2 * src.nbytes / statistics.median(times) / 1e9


def tail(values: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, n)``: the highest percentile with at least ten
    samples beyond it, by nearest rank.  With 20 or fewer samples that
    percentile is at or below the median, so the maximum (percentile 100)
    stands in as the tail."""
    n = len(values)
    ordered = sorted(values)
    if n <= 20:
        return ordered[-1], 100.0, n
    rank = n - 10
    return ordered[rank - 1], 100.0 * rank / n, n


def median(values):
    return statistics.median(values) if values else math.nan


def emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True), flush=True)
