"""Sharding benchmark: aggregate serving throughput, 1 shard vs N.

Runs the in-process loadtest twice against identical workloads — once on
a single-shard server, once on an ``N``-shard server behind the
consistent-hash router (``repro.serve.router``) — and reports the
scaling ratio plus per-shard shape affinity.  The workload is spread one
shape per shard (derived from the live ring, exactly like
``repro loadtest --shards``), so the sharded number measures all ``N``
stacks instead of whichever shard one shape happens to hash to.

Reported series:

* ``single_rps``   — single-shard achieved matrices/s
* ``sharded_rps``  — N-shard aggregate matrices/s (the gated number)
* ``scaling``      — ``sharded_rps / single_rps``
* ``affinity_min`` — the worst shard's routing-affinity rate (requests
  that hit a shape the shard had already planned); the per-shard
  plan/kernel cache-hotness proxy

``--floor R`` fails the run when ``scaling < R * shards``.  The floor is
enforced only when the machine has at least as many cores as shards —
per-shard scaling is unfalsifiable on fewer cores.  Each run appends one point to the committed
trajectory (``benchmarks/results/BENCH_sharding_trajectory.json``)
unless ``--no-trajectory``.

Usage::

    python benchmarks/bench_sharding.py                       # report only
    python benchmarks/bench_sharding.py --shards 4 --floor 0.8    # CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.cli import _shard_aligned_shapes  # noqa: E402
from repro.serve import ServeConfig, TransposeServer  # noqa: E402
from repro.serve.loadgen import run_loadtest  # noqa: E402

_RESULTS = Path(__file__).resolve().parent / "results"
TRAJECTORY = _RESULTS / "BENCH_sharding_trajectory.json"
BASE_M, BASE_N = 256, 384
DTYPE = "uint8"


def run_once(n_shards: int, shapes, args) -> tuple[float, dict]:
    """One loadtest against a fresh n-shard server; returns
    (achieved matrices/s, router stats)."""
    server = TransposeServer(ServeConfig(
        port=0,
        workers=args.workers,
        queue_size=args.queue_size,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        shards=n_shards,
    )).start()
    try:
        report = run_loadtest(
            server.url,
            rate=args.rate,
            duration_s=args.duration,
            shapes=shapes,
            dtype=DTYPE,
            tiles=args.tiles,
            connections=args.connections,
            reference=False,
            verify_every=args.verify_every,
            interim_every_s=0.0,
        )
        stats = server.router.stats()
    finally:
        summary = server.shutdown()
    if summary["dropped"]:
        raise SystemExit(
            f"{summary['dropped']} accepted requests dropped on the "
            f"{n_shards}-shard run — the numbers are not comparable"
        )
    return report.achieved_rps, stats


def measure(args) -> dict:
    # Derive the shard-aligned workload from a throwaway router: shapes
    # are a pure function of the ring, which depends only on shard count.
    probe = TransposeServer(ServeConfig(port=0, shards=args.shards))
    shapes = _shard_aligned_shapes(probe.router, BASE_M, BASE_N, DTYPE)
    single_rps, _ = run_once(1, shapes, args)
    sharded_rps, stats = run_once(args.shards, shapes, args)
    per_shard = stats["per_shard"]
    affinity_min = min(
        (s["affinity_rate"] for s in per_shard if s["routed"]), default=0.0
    )
    return {
        "shards": args.shards,
        "workers_per_shard": args.workers,
        "shapes": [f"{s.m}x{s.n}" for s in shapes],
        "dtype": DTYPE,
        "tiles": args.tiles,
        "rate": args.rate,
        "duration_s": args.duration,
        "single_rps": single_rps,
        "sharded_rps": sharded_rps,
        "scaling": sharded_rps / max(single_rps, 1e-12),
        "affinity_min": affinity_min,
        "per_shard": per_shard,
    }


def append_trajectory(report: dict, path: Path) -> None:
    """One point per run, same shape as the other bench trajectories."""
    import datetime

    entry = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "commit": os.environ.get("GITHUB_SHA"),
        "shards": report["shards"],
        "single_rps": report["single_rps"],
        "sharded_rps": report["sharded_rps"],
        "scaling": report["scaling"],
        "affinity_min": report["affinity_min"],
    }
    history = []
    if path.exists():
        history = json.loads(path.read_text())
        if not isinstance(history, list):
            raise SystemExit(f"trajectory file {path} is not a JSON list")
    history.append(entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--workers", type=int, default=1,
                        help="workers per shard (1 isolates router scaling "
                        "from pool scaling)")
    parser.add_argument("--rate", type=float, default=4000.0,
                        help="offered matrices/s (set well above single-"
                        "shard capacity so both runs saturate)")
    parser.add_argument("--duration", type=float, default=5.0)
    parser.add_argument("--tiles", type=int, default=4)
    parser.add_argument("--connections", type=int, default=16)
    parser.add_argument("--queue-size", type=int, default=512)
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--max-wait-ms", type=float, default=0.5)
    parser.add_argument("--verify-every", type=int, default=8)
    parser.add_argument("--floor", type=float, default=None,
                        help="fail when scaling < floor * shards (CI uses "
                        "0.8; enforced only on >= --shards cores)")
    parser.add_argument("--min-affinity", type=float, default=None,
                        help="fail when the worst shard's affinity rate is "
                        "below this (CI uses 0.9)")
    parser.add_argument("--output", default="BENCH_sharding.json")
    parser.add_argument("--trajectory", default=str(TRAJECTORY))
    parser.add_argument("--no-trajectory", action="store_true",
                        help="skip the trajectory append (scratch runs)")
    args = parser.parse_args(argv)
    if args.shards < 2:
        raise SystemExit("--shards must be >= 2 (1-vs-N is the experiment)")

    report = measure(args)
    Path(args.output).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"workload: {','.join(report['shapes'])} {DTYPE} "
        f"x{report['tiles']} tiles, offered {args.rate:.0f} matrices/s "
        f"for {args.duration:.0f}s"
    )
    print(f"single shard : {report['single_rps']:8.1f} matrices/s")
    print(
        f"{report['shards']} shards     : {report['sharded_rps']:8.1f} "
        f"matrices/s  -> scaling {report['scaling']:.2f}x, "
        f"worst-shard affinity {report['affinity_min']:.1%}"
    )
    print(f"wrote {args.output}")
    if not args.no_trajectory:
        append_trajectory(report, Path(args.trajectory))
        print(f"trajectory appended: {args.trajectory}")

    failed = False
    cores = os.cpu_count() or 1
    if args.floor is not None:
        target = args.floor * args.shards
        if cores < args.shards:
            print(
                f"scaling gate skipped: {cores} core(s) < "
                f"{args.shards} shards (floor {target:.2f}x unfalsifiable)"
            )
        elif report["scaling"] < target:
            print(
                f"FAIL: scaling {report['scaling']:.2f}x < floor "
                f"{target:.2f}x ({args.floor:.2f} x {args.shards} shards)"
            )
            failed = True
        else:
            print(
                f"scaling gate: PASS ({report['scaling']:.2f}x >= "
                f"{target:.2f}x)"
            )
    if args.min_affinity is not None:
        if report["affinity_min"] < args.min_affinity:
            print(
                f"FAIL: worst-shard affinity {report['affinity_min']:.1%} "
                f"< floor {args.min_affinity:.1%}"
            )
            failed = True
        else:
            print(
                f"affinity gate: PASS ({report['affinity_min']:.1%} >= "
                f"{args.min_affinity:.1%})"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
