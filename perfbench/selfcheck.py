"""Fast self-check of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/selfcheck.py

Asserts that every metric is printed with its unit on every workload, that
an injected wrong output is counted and fails the run, that the traced run
sees native kernel calls and no fallback, that the traced layers account for
at least 0.9 of call time on the library workloads, and that the command
fails without printing a result where the program is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

SECONDS = {"serve-mixed": "2"}
SERVE_LINES = ("lat_ms_p50.lo", "lat_ms_tail.lo", "lat_ms_p50.hi", "lat_ms_tail.hi",
               "max_rate_mat_s")


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", SECONDS.get(workload, "1"), "--trace", str(trace),
           "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 4 and parts[0] == workload and parts[2] == "=":
            printed[parts[1]] = parts[3:]
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, printed, result, proc.stderr


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {what}")
    print(f"ok  {what}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END,
          "BENCHMARK.json end_to_end matches run.py")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER,
          "BENCHMARK.json per_layer matches run.py")
    check({w["name"] for w in spec["workloads"]} <= set(WORKLOADS),
          "BENCHMARK.json workloads are run.py workloads")

    for w in WORKLOADS:
        code, printed, res, err = bench(w, 0)
        check(code == 0 and res and res["correct"] and res["failed"] == 0,
              f"{w}: untraced run correct ({err.strip()[-300:]})")
        for name, unit in END_TO_END.items():
            check(printed.get(name, [None, None])[1] == unit
                  and res["metrics"][name]["unit"] == unit
                  and res["metrics"][name]["value"] > 0,
                  f"{w}: {name} printed in {unit}, nonzero")
        check("fail_ratio" in printed and float(printed["fail_ratio"][0]) == 0.0,
              f"{w}: fail_ratio printed and 0")
        if w == "serve-mixed":
            check(all(n in printed for n in SERVE_LINES), f"{w}: lo/hi latencies and max rate")

        code, printed, res, err = bench(w, 1)
        check(code == 0 and res and res["correct"], f"{w}: traced run correct")
        for name, unit in PER_LAYER.items():
            check(printed.get(name, [None, None])[1] == unit
                  and res["metrics"][name]["unit"] == unit,
                  f"{w}: {name} printed in {unit}")
        layers = {k: v["value"] for k, v in res["metrics"].items()}
        check(layers["native.calls"] > 0 and layers["native.fallbacks"] == 0,
              f"{w}: native kernels ran, no fallback")
        if w.startswith("lib-"):
            check(layers["trace.attributed_frac"] >= 0.9,
                  f"{w}: traced layers cover {layers['trace.attributed_frac']:.3f} >= 0.9 of call time")

        code, printed, res, _err = bench(w, 0, "--inject-fault")
        check(code != 0 and res and not res["correct"] and res["failed"] >= 1
              and float(printed["fail_ratio"][0]) > 0,
              f"{w}: injected wrong output counted in fail_ratio and fails the run")

    bare = ROOT / ".bench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, _printed, res, _err = bench("lib-hot", 0, cwd=bare)
    finally:
        shutil.rmtree(bare.parent, ignore_errors=True)
    check(code != 0 and res is None, "without the program: non-zero exit, no result")
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
