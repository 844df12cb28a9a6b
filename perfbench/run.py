"""The repository's end-to-end benchmark: one command, four workloads.

    python3 perfbench/run.py --workload lib-hot --seed 1 --seconds 10 --trace 0

Run from the repository root (or any checkout of it).  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` is the separate traced run that prints
the per-layer metrics.  Every output is checked byte-exact against numpy;
the command exits non-zero on any wrong output, on a native-kernel fallback
and, in the traced run, when no native kernel ran.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
#: a run must end within 180 s; child processes get what is left of this
DEADLINE = monotonic() + 170

from common import (  # noqa: E402
    FILE,
    FILE_TINY,
    LIB,
    LIB_TINY,
    SERVE_MIX,
    SETUPS,
    TILES,
    Checker,
    emit,
    median,
    memcpy_gb_s,
    tail,
)

WORKLOADS = ("lib-hot", "lib-large", "serve-mixed", "file-stream")

END_TO_END = {
    "setup_s": "s",
    "throughput_mb_s": "MB/s",
    "call_ms_p50": "ms",
    "call_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "native.pass_ms.rotate_groups": "ms",
    "native.pass_ms.gather_cols": "ms",
    "native.pass_ms.gather_rows": "ms",
    "native.roofline_frac.rotate_groups": "ratio",
    "native.roofline_frac.gather_cols": "ratio",
    "native.roofline_frac.gather_rows": "ratio",
    "native.bytes_moved": "bytes",
    "native.calls": "count",
    "native.kernel_share": "ratio",
    "native.compile_s": "s",
    "native.compiles": "count",
    "native.fallbacks": "count",
    "core.plan_build_s": "s",
    "core.plan_builds": "count",
    "core.plan_scratch_mb": "MB",
    "core.exec_self_ms": "ms",
    "core.plan_share": "ratio",
    "plan_cache.hit_ratio": "ratio",
    "plan_cache.misses": "count",
    "plan_cache.evictions": "count",
    "plan_cache.oversize_rejects": "count",
    "plan_cache.build_s": "s",
    "plan_cache.bytes": "bytes",
    "stream.bands": "count",
    "stream.bytes_rw": "bytes",
    "stream.pass_ms.row_shuffle_r2c": "ms",
    "stream.pass_ms.inverse_column_shuffle": "ms",
    "stream.pass_ms.post_rotate": "ms",
    "stream.kernel_ms": "ms",
    "stream.flush_ms": "ms",
    "stream.naive_ratio": "ratio",
    "serve.queue_wait_ms": "ms",
    "serve.execute_ms": "ms",
    "serve.batch_size_mean": "count",
    "serve.groups": "count",
    "serve.server_e2e_ms": "ms",
    "serve.wire_ms": "ms",
    "serve.kernel_share": "ratio",
    "serve.rejected": "count",
    "serve.efficiency": "ratio",
    "loadgen.send_lag_ms": "ms",
    "ref.memcpy_gb_s": "GB/s",
    "trace.overhead_frac": "ratio",
    "trace.attributed_frac": "ratio",
}


class BenchError(RuntimeError):
    pass


def child_env(native_dir: Path) -> dict:
    """Production defaults for a process under test: every ``REPRO_*``
    setting dropped, a fresh native-artifact directory, temporary files
    kept inside the work directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        REPRO_NATIVE_DIR=str(native_dir),
        TMPDIR=str(native_dir.parent),
    )
    return env


# -- environment record -------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def environment() -> dict:
    import numpy as np

    import repro.native as native

    cpu = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        d = f"{base}/{idx}"
        if idx.startswith("index"):
            caches[f"L{_read(d + '/level')}{_read(d + '/type')[0].lower()}"] = _read(d + "/size")
    cc = native.find_compiler()
    compiler = ""
    if cc:
        proc = subprocess.run([cc, "--version"], capture_output=True, text=True, timeout=30)
        compiler = proc.stdout.splitlines()[0] if proc.stdout else cc
    commit = ""
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        digest.update(p.relative_to(ROOT).as_posix().encode())
        digest.update(p.read_bytes())
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "caches": caches, "compiler": compiler,
        "python": platform.python_version(), "numpy": np.__version__,
        "commit": commit or None, "src_sha256": digest.hexdigest()[:16],
        "native_available": native.available(),
    }


def buffer_bytes(workload: str, tiny: bool) -> list[int]:
    """Byte size of each buffer the workload transposes."""
    import numpy as np

    if workload in LIB:
        return [m * n * np.dtype(d).itemsize for m, n, d in (LIB_TINY if tiny else LIB)[workload]]
    if workload == "file-stream":
        m, n, d, _w = FILE_TINY if tiny else FILE
        return [m * n * np.dtype(d).itemsize]
    return [TILES * m * n * np.dtype(d).itemsize for m, n, d, _w in SERVE_MIX]


# -- workloads ------------------------------------------------------------------


def run_workers(args, work: Path, checker: Checker) -> dict:
    """``SETUPS`` fresh worker processes; the last one also measures."""
    setups, last = [], {}
    for i in range(SETUPS):
        mode = "setup" if i < SETUPS - 1 else ("traced" if args.trace else "measure")
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
               "--workdir", str(work), "--spawned-at", repr(monotonic())]
        cmd += ["--tiny"] * args.tiny + ["--inject-fault"] * (args.inject_fault and mode != "setup")
        proc = subprocess.run(cmd, env=child_env(work / f"native-{i}"), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, DEADLINE - monotonic()))
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        setups.append(last["setup_s"])
        checker.attempted += last["attempted"]
        checker.failed += last["failed"]
        if last["counters"].get("native.fallback", 0):
            raise BenchError("the native backend fell back to numpy")
    calls = last["calls_s"]
    value, pct, n = tail(calls)
    return {
        "e2e": {
            "setup_s": median(setups),
            "throughput_mb_s": sum(last["bytes"]) / sum(calls) / 1e6,
            "call_ms_p50": 1e3 * median(calls),
            "call_ms_tail": 1e3 * value,
            "peak_rss_mb": last["rss_mb"],
        },
        "notes": {"call_ms_tail.percentile": pct, "call_ms_tail.samples": n},
        "layers": last.get("layers", {}),
    }


def run_serve(args, work: Path, checker: Checker) -> dict:
    import serving

    out = serving.run(args, ROOT, work, child_env, checker)
    if out["counters"]["native.fallback"]:
        raise BenchError("the server's native backend fell back to numpy")
    if not out["counters"]["native.calls"]:
        raise BenchError("no native kernel ran in the server")
    wins = out["windows"]
    p50, value, pct, n = out["saturated"]
    notes = {"call_ms_tail.percentile": pct, "call_ms_tail.samples": n,
             "max_rate_mat_s": out["max_rate_mat_s"], "saturated_mat_s": out["saturated_mat_s"]}
    for name, win in wins.items():
        q50, v, p, k = win["stats"]
        notes.update({f"lat_ms_p50.{name}": q50, f"lat_ms_tail.{name}": v,
                      f"lat_ms_tail.{name}.percentile": p, f"lat_ms_tail.{name}.samples": k})
    result = {
        "e2e": {
            "setup_s": out["setup_s"],
            "throughput_mb_s": out["saturated_mat_s"] * out["mat_bytes"] / 1e6,
            "call_ms_p50": p50,
            "call_ms_tail": value,
            "peak_rss_mb": out["rss_mb"],
        },
        "notes": notes,
        "layers": {},
    }
    if args.trace:
        from tracing import native_layers, pass_kinds

        from repro.serve.loadgen import measure_ceiling_rps

        server = out["server"]
        tot = server["totals"]
        memcpy = memcpy_gb_s(max(buffer_bytes("serve-mixed", args.tiny)))
        executes = max([tot[f"native.count.{k}"] for k in pass_kinds(tot)] or [1])
        layers = native_layers(tot, executes, memcpy)
        layers.update(server["layers"])
        layers.update(wins["hi"]["layers"])
        m, n, dt, _w = SERVE_MIX[0]
        layers.update({
            "serve.kernel_share": tot.get("native.pass", 0.0) / out["execute_s"],
            "serve.efficiency": out["saturated_mat_s"] / measure_ceiling_rps(m, n, dt),
            "ref.memcpy_gb_s": memcpy,
            "trace.overhead_frac": out["trace_overhead"],
        })
        result["layers"] = layers
    return result


# -- entry point ----------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measured time per run (library/file: timed call time)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small sizes for the self-check (selfcheck.py)")
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt one measured output to prove the check catches it")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_DIR"] = str(work / "native-load")
    os.environ["TMPDIR"] = str(work)
    sys.path.insert(0, str(ROOT / "src"))
    checker = Checker(args.inject_fault)
    try:
        env = environment()
        env["buffer_bytes"] = buffer_bytes(args.workload, args.tiny)
        print("env " + json.dumps(env, sort_keys=True), flush=True)
        runner = run_serve if args.workload == "serve-mixed" else run_workers
        res = runner(args, work, checker)
    except (BenchError, RuntimeError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    fail_ratio = checker.failed / max(1, checker.attempted)
    for name, unit in END_TO_END.items():
        print(f"{args.workload} {name} = {res['e2e'][name]:.6g} {unit}")
    print(f"{args.workload} fail_ratio = {fail_ratio:.6g} ({checker.failed}/{checker.attempted})")
    for name, value in res["notes"].items():
        print(f"{args.workload} {name} = {value:.6g}")
    layers = res["layers"]
    if args.trace:
        for name, unit in PER_LAYER.items():
            print(f"{args.workload} {name} = {layers.get(name, 0.0):.6g} {unit}")
    guard = ""
    if args.trace and layers.get("native.calls", 0) == 0:
        guard = "no native kernel call was traced"
    if args.trace and layers.get("native.fallbacks", 0):
        guard = "the native backend fell back to numpy"
    if guard:
        print(f"error: {guard}", file=sys.stderr)
    correct = checker.failed == 0 and not guard
    table = PER_LAYER if args.trace else END_TO_END
    source = layers if args.trace else res["e2e"]
    emit({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": float(source.get(name, 0.0)), "unit": unit}
                    for name, unit in table.items()},
    })
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
