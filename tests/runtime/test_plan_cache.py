"""Plan-cache behavior: LRU eviction under a byte budget, thread safety,
differential cached-vs-uncached equality, and the amortization win the cache
exists to deliver."""

from __future__ import annotations

import threading
from time import perf_counter

import numpy as np
import pytest

from repro import native
from repro.core.batched import batched_transpose_inplace
from repro.core.transpose import transpose_inplace
from repro.runtime import metrics, plan_cache
from repro.runtime.plan_cache import PlanCache, PlanKey


def _key(m: int, n: int, **kw) -> PlanKey:
    defaults = dict(m=m, n=n, order="C", algorithm="c2r", dtype="float64")
    defaults.update(kw)
    return PlanKey(**defaults)


#: bytes each warmed plan acquires after insertion
CHARGE = 4096


def _warm(m: int, n: int, cache: PlanCache):
    """Look up a plan and charge ``CHARGE`` bytes to its entry in
    ``cache``, the path a compiled kernel's artifact takes."""
    plan = plan_cache.get_single_plan(m, n, "C", "c2r", "float64", cache=cache)
    plan_cache.charge(plan, CHARGE)
    return plan


@pytest.fixture(autouse=True)
def _clean_global_cache():
    """Tests observing the process-wide cache start from a known state."""
    cache = plan_cache.get_plan_cache()
    saved = (cache.max_bytes, cache.enabled)
    plan_cache.clear()
    cache.reset_stats()
    yield
    cache.configure(max_bytes=saved[0], enabled=saved[1])
    plan_cache.clear()
    cache.reset_stats()


class TestLRUEviction:
    def test_evicts_least_recently_used_under_byte_budget(self):
        # Plans are O(1) until something is charged to them, so each shape
        # is warmed; the budget has room for two charges, not three.
        budget = int(CHARGE * 2.5)
        cache = PlanCache(max_bytes=budget)
        for mm in (24, 25, 26):
            _warm(mm, 36, cache)
        stats = cache.stats()
        assert stats["misses"] == 3
        assert stats["evictions"] >= 1
        assert stats["current_bytes"] <= budget
        # 24x36 was the least recently used -> gone; 26x36 must be resident.
        assert _key(24, 36) not in cache
        assert _key(26, 36) in cache

    def test_hit_refreshes_recency(self):
        cache = PlanCache(max_bytes=int(CHARGE * 2.5))
        _warm(24, 36, cache)
        _warm(25, 36, cache)
        plan_cache.get_single_plan(24, 36, "C", "c2r", "float64", cache=cache)  # hit
        _warm(26, 36, cache)
        # The hit moved 24x36 to the MRU end, so 25x36 was evicted instead.
        assert _key(24, 36) in cache
        assert _key(25, 36) not in cache

    def test_oversize_plan_is_returned_but_never_retained(self):
        # The O(1) plan fits; its charge outgrows the whole budget on its
        # own, so the entry is dropped (without flushing anything else)
        # while the caller keeps a working plan.
        cache = PlanCache(max_bytes=64)
        plan = _warm(32, 48, cache)
        assert plan.m == 32
        assert len(cache) == 0
        assert cache.stats()["current_bytes"] == 0
        assert cache.stats()["oversize_rejects"] == 1

    def test_shrinking_budget_evicts_immediately(self):
        cache = PlanCache()
        _warm(24, 36, cache)
        _warm(25, 36, cache)
        cache.configure(max_bytes=0)
        assert len(cache) == 0
        assert cache.stats()["current_bytes"] == 0

    def test_disabled_cache_builds_but_does_not_retain(self):
        cache = PlanCache(enabled=False)
        p1 = plan_cache.get_single_plan(24, 36, "C", "c2r", "float64", cache=cache)
        p2 = plan_cache.get_single_plan(24, 36, "C", "c2r", "float64", cache=cache)
        assert p1 is not p2
        assert len(cache) == 0
        assert cache.stats()["hits"] == cache.stats()["misses"] == 0


class TestKeying:
    def test_auto_resolves_to_heuristic_algorithm(self):
        cache = PlanCache()
        p_auto = plan_cache.get_single_plan(40, 24, "C", "auto", "float64", cache=cache)
        p_expl = plan_cache.get_single_plan(40, 24, "C", "c2r", "float64", cache=cache)
        assert p_auto is p_expl  # m > n -> c2r; auto and explicit share the entry
        assert cache.stats()["hits"] == 1

    def test_distinct_orders_and_dtypes_get_distinct_entries(self):
        cache = PlanCache()
        seen = set()
        for order in ("C", "F"):
            for dtype in ("float64", "float32"):
                plan = plan_cache.get_single_plan(
                    12, 18, order, "auto", dtype, cache=cache
                )
                seen.add(id(plan))
        assert len(cache) == 4
        assert len(seen) == 4

    def test_batch_sizes_share_one_entry(self):
        # A batch is a leading extent of one plan: single and batched
        # lookups of a shape, at any batch size, hit the same entry.
        cache = PlanCache()
        single = plan_cache.get_single_plan(8, 12, "C", "auto", "float64", cache=cache)
        for k in (4, 8):
            assert plan_cache.get_batched_plan(
                8, 12, k, "C", "auto", "float64", cache=cache
            ) is single
        assert len(cache) == 1
        assert cache.stats()["misses"] == 1


class TestDifferential:
    """Cached and uncached paths must produce bit-identical buffers."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize(
        "m,n", [(1, 1), (1, 17), (13, 1), (12, 18), (18, 12), (31, 37), (48, 48)]
    )
    def test_cached_matches_uncached(self, m, n, order):
        base = np.arange(m * n, dtype=np.float64)
        cached = base.copy()
        uncached = base.copy()
        transpose_inplace(cached, m, n, order)
        transpose_inplace(uncached, m, n, order, use_plan_cache=False)
        np.testing.assert_array_equal(cached, uncached)
        # And once more through the now-warm cache.
        warm = base.copy()
        transpose_inplace(warm, m, n, order)
        np.testing.assert_array_equal(warm, uncached)

    def test_cached_matches_strict_kernel(self):
        m, n = 21, 35
        base = np.arange(m * n, dtype=np.int64)
        cached = base.copy()
        strict = base.copy()
        transpose_inplace(cached, m, n)
        transpose_inplace(strict, m, n, variant="gather", aux="strict",
                          use_plan_cache=False)
        np.testing.assert_array_equal(cached, strict)

    def test_batched_cached_matches_uncached(self):
        k, m, n = 5, 9, 15
        base = np.arange(k * m * n, dtype=np.float64)
        cached = base.copy()
        uncached = base.copy()
        batched_transpose_inplace(cached, m, n)
        batched_transpose_inplace(uncached, m, n, use_plan_cache=False)
        np.testing.assert_array_equal(cached, uncached)
        expected = base.reshape(k, m, n).transpose(0, 2, 1).reshape(-1)
        np.testing.assert_array_equal(cached, expected)

    def test_use_plan_cache_rejected_for_noncached_configs(self):
        buf = np.arange(12.0)
        with pytest.raises(ValueError):
            transpose_inplace(buf, 3, 4, aux="strict", use_plan_cache=True)

    def test_noncontiguous_buffer_rejected_on_cached_path(self):
        buf = np.arange(48.0)[::2]
        with pytest.raises(ValueError, match="contiguous"):
            transpose_inplace(buf, 4, 6)


class TestConcurrency:
    def test_concurrent_mixed_shapes_through_global_cache(self):
        shapes = [(12, 18), (18, 12), (7, 29), (16, 16)]
        expected = {
            (m, n): np.arange(m * n, dtype=np.float64).reshape(m, n).T.copy().ravel()
            for m, n in shapes
        }
        errors: list[Exception] = []
        start = threading.Barrier(8)

        def worker(tid: int) -> None:
            try:
                start.wait()
                for i in range(12):
                    m, n = shapes[(tid + i) % len(shapes)]
                    buf = np.arange(m * n, dtype=np.float64)
                    transpose_inplace(buf, m, n)
                    np.testing.assert_array_equal(buf, expected[(m, n)])
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = plan_cache.stats()
        # Every lookup is accounted for: 8 threads x 12 calls, each exactly
        # one hit or one miss.
        assert stats["hits"] + stats["misses"] == 8 * 12
        assert stats["hits"] > 0
        assert len(plan_cache.get_plan_cache()) == len(shapes)

    def test_cold_key_race_builds_one_shared_plan(self):
        cache = PlanCache()
        plans: list[object] = []
        lock = threading.Lock()
        start = threading.Barrier(6)

        def worker() -> None:
            start.wait()
            plan = plan_cache.get_single_plan(
                30, 42, "C", "auto", "float64", cache=cache
            )
            with lock:
                plans.append(plan)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # All callers ended up sharing the single resident plan.
        resident = plan_cache.get_single_plan(30, 42, "C", "auto", "float64", cache=cache)
        assert all(p is resident for p in plans)
        assert len(cache) == 1

    def test_concurrent_eviction_pressure_stays_consistent(self):
        cache = PlanCache(max_bytes=int(CHARGE * 3.5))
        start = threading.Barrier(4)
        errors: list[Exception] = []

        def worker(tid: int) -> None:
            try:
                start.wait()
                for i in range(20):
                    _warm(24 + ((tid * 7 + i) % 10), 36, cache)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats()
        assert stats["current_bytes"] <= stats["max_bytes"]
        assert stats["evictions"] > 0
        # current_bytes must equal the sum of resident plan footprints.
        resident = sum(nb for _, nb in cache._plans.values())
        assert stats["current_bytes"] == resident


class TestAmortization:
    def test_repeated_shapes_hit_cache_and_run_faster(self):
        """The acceptance check: on >= 3 repeated shapes, cached calls record
        hits and beat per-call planning in total wall time."""
        shapes = [(96, 144), (144, 96), (120, 120), (80, 200)]
        reps = 6
        cache = plan_cache.get_plan_cache()

        uncached_t = 0.0
        for m, n in shapes:
            proto = np.arange(m * n, dtype=np.float64)
            for _ in range(reps):
                buf = proto.copy()
                t0 = perf_counter()
                transpose_inplace(buf, m, n, use_plan_cache=False)
                uncached_t += perf_counter() - t0

        hits_before = cache.stats()["hits"]
        cached_t = 0.0
        for m, n in shapes:
            proto = np.arange(m * n, dtype=np.float64)
            transpose_inplace(proto.copy(), m, n)  # warm the cache (miss)
            for _ in range(reps):
                buf = proto.copy()
                t0 = perf_counter()
                transpose_inplace(buf, m, n)
                cached_t += perf_counter() - t0

        hits = cache.stats()["hits"] - hits_before
        assert hits >= len(shapes) * reps
        # Planning costs about one pass over the data (Section 4), so cached
        # execution should win clearly; 0.9 leaves margin for timer noise.
        assert cached_t < uncached_t * 0.9, (
            f"cached {cached_t:.4f}s not faster than uncached {uncached_t:.4f}s"
        )


#: odd, prime and composite shapes plus a lib-large-like 3:4 aspect ratio
SPACE_LATTICE = [
    (7, 13), (13, 7), (1, 17), (17, 1), (31, 37), (97, 89),
    (256, 384), (384, 256), (600, 800),
]
#: the constant of the O(max(m, n)) auxiliary-space bound the tests pin
SPACE_C = 8


class TestSpaceBound:
    """The paper's O(max(m, n)) auxiliary space, held by cached plans."""

    @pytest.mark.parametrize("dtype", ["uint8", "float32"])
    def test_cached_plans_are_o_max_mn_until_numpy_runs(self, dtype):
        itemsize = np.dtype(dtype).itemsize
        for m, n in SPACE_LATTICE:
            bound = SPACE_C * max(m, n) * itemsize
            for order in ("C", "F"):
                single = plan_cache.get_single_plan(m, n, order, "auto", dtype)
                batched = plan_cache.get_batched_plan(m, n, 3, order, "auto", dtype)
                assert batched is single
                assert single.scratch_bytes <= bound, (m, n, order)
        assert plan_cache.stats()["current_bytes"] == 0

    @pytest.mark.skipif(not native.available(), reason="no C toolchain")
    def test_native_execute_keeps_the_bound(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
        for m, n in [(7, 13), (97, 89), (256, 384), (600, 800)]:
            buf = np.arange(m * n, dtype=np.float32)
            expected = buf.reshape(m, n).T.copy().reshape(-1)
            transpose_inplace(buf, m, n, backend="native")
            np.testing.assert_array_equal(buf, expected)
            plan = plan_cache.get_single_plan(m, n, "C", "auto", np.float32)
            assert plan.scratch_bytes <= SPACE_C * max(m, n) * 4, (m, n)
        artifacts = sum(p.stat().st_size for p in tmp_path.glob("*.so"))
        assert artifacts > 0
        assert plan_cache.stats()["current_bytes"] == artifacts


class TestOnePlanPerShape:
    def test_single_and_batched_calls_share_one_plan_and_kernel(
        self, tmp_path, monkeypatch
    ):
        """One 256x384 uint8 shape seen as a single call and as batches of
        2, 3 and 5 tiles: one miss, one entry and (with a toolchain) one
        compiled kernel, charged once."""
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
        metrics.reset()
        m, n = 256, 384
        tile = np.arange(m * n, dtype=np.uint8)
        expected = tile.reshape(m, n).T.copy().reshape(-1)
        buf = tile.copy()
        transpose_inplace(buf, m, n)
        np.testing.assert_array_equal(buf, expected)
        for k in (2, 3, 5):
            batch = np.tile(tile, k)
            batched_transpose_inplace(batch, m, n)
            np.testing.assert_array_equal(batch, np.tile(expected, k))
        stats = plan_cache.stats()
        assert stats["misses"] == 1
        assert stats["entries"] == 1
        if native.available():
            counters = metrics.registry.snapshot()["counters"]
            assert counters.get("native.compile", 0) == 1
            artifacts = list(tmp_path.glob("*.so"))
            assert len(artifacts) == 1
            assert stats["current_bytes"] == artifacts[0].stat().st_size
