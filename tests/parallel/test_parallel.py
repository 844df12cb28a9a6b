"""Tests for the parallel CPU transposition."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import transpose_inplace
from repro.parallel import (
    ParallelExecutor,
    ParallelTranspose,
    PassExecutionError,
    balanced_chunks,
    parallel_transpose_inplace,
)

from ..conftest import dim_pairs

thread_counts = st.sampled_from([1, 2, 3, 4, 8])


class TestBalancedChunks:
    @given(st.integers(0, 1000), st.integers(1, 64))
    def test_cover_exactly_once(self, total, parts):
        chunks = balanced_chunks(total, parts)
        seen = []
        for ch in chunks:
            seen.extend(range(ch.start, ch.stop))
        assert seen == list(range(total))

    @given(st.integers(1, 1000), st.integers(1, 64))
    def test_sizes_differ_by_at_most_one(self, total, parts):
        chunks = balanced_chunks(total, parts)
        sizes = [ch.stop - ch.start for ch in chunks]
        assert max(sizes) - min(sizes) <= 1
        assert all(s > 0 for s in sizes)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            balanced_chunks(-1, 2)
        with pytest.raises(ValueError):
            balanced_chunks(5, 0)

    def test_more_parts_than_items(self):
        assert len(balanced_chunks(3, 10)) == 3


class TestExecutor:
    def test_sequential_shortcut(self):
        ex = ParallelExecutor(1)
        out = []
        ex.parallel_for(10, lambda ch: out.extend(range(ch.start, ch.stop)))
        assert out == list(range(10))

    def test_parallel_covers_all(self):
        with ParallelExecutor(4) as ex:
            hits = np.zeros(1000, dtype=np.int64)
            lock = threading.Lock()

            def body(ch: slice) -> None:
                with lock:
                    hits[ch] += 1

            ex.parallel_for(1000, body)
            assert (hits == 1).all()

    def test_worker_exception_propagates(self):
        with ParallelExecutor(2) as ex:
            def body(ch: slice) -> None:
                raise RuntimeError("boom")

            with pytest.raises(RuntimeError, match="boom"):
                ex.parallel_for(10, body)

    def test_rejects_zero_threads(self):
        with pytest.raises(ValueError):
            ParallelExecutor(0)

    def test_chunk_failure_identifies_pass_and_chunk(self):
        """A failing chunk raises PassExecutionError carrying the pass name
        and the exact chunk slice, chained to the original exception."""
        with ParallelExecutor(2) as ex:
            def body(ch: slice) -> None:
                if ch.start == 0:
                    raise ValueError("boom")

            with pytest.raises(PassExecutionError) as ei:
                ex.parallel_for(10, body, name="row_shuffle")
        err = ei.value
        assert err.pass_name == "row_shuffle"
        assert (err.chunk.start, err.chunk.stop) == (0, 5)
        assert isinstance(err.__cause__, ValueError)
        assert "row_shuffle" in str(err) and "[0:5)" in str(err)

    def test_chunk_failure_sequential_path(self):
        ex = ParallelExecutor(1)

        def body(ch: slice) -> None:
            raise ValueError("boom")

        with pytest.raises(PassExecutionError) as ei:
            ex.parallel_for(4, body, name="column_shuffle")
        assert ei.value.pass_name == "column_shuffle"
        assert isinstance(ei.value.__cause__, ValueError)

    def test_chunk_failure_waits_for_in_flight(self):
        """parallel_for must not raise while another chunk is still running:
        the caller tears down shared state right after, so the barrier has
        to cover in-flight chunks even on the failure path."""
        release = threading.Event()
        slow_done = threading.Event()

        def body(ch: slice) -> None:
            if ch.start == 0:
                # the slow chunk: blocks until the timer releases it
                release.wait(timeout=10)
                slow_done.set()
            else:
                raise ValueError("boom")

        timer = threading.Timer(0.2, release.set)
        timer.start()
        try:
            with ParallelExecutor(2) as ex:
                with pytest.raises(PassExecutionError) as ei:
                    ex.parallel_for(10, body, name="p")
        finally:
            timer.cancel()
        # the raise happened only after the blocked chunk finished
        assert slow_done.is_set()
        assert ei.value.chunk.start == 5


class TestTransposeAbortsOnPassFailure:
    def test_failed_pass_stops_the_schedule(self, monkeypatch):
        """If row_shuffle fails, column_shuffle must never run: executing
        later passes over a half-permuted buffer would corrupt it further
        and mask the original error."""
        from repro.core import engine

        calls = []
        index_tables = engine.index_tables

        def source(dec, p):
            if p.name == "row_shuffle":
                raise ValueError("boom")
            calls.append(p.name)
            return index_tables(dec, p)

        monkeypatch.setattr(engine, "index_tables", source)
        m, n = 7, 13  # coprime: no pre-rotation, row_shuffle runs first
        buf = np.arange(m * n, dtype=np.float64)
        snapshot = buf.copy()
        with ParallelTranspose(2, native="off") as pt:
            with pytest.raises(PassExecutionError) as ei:
                pt.c2r(buf, m, n)
        assert ei.value.pass_name == "row_shuffle"
        assert calls == []  # column_shuffle never started
        # the index source raised before any write: buffer is untouched
        np.testing.assert_array_equal(buf, snapshot)


class TestParallelTranspose:
    @given(dim_pairs, thread_counts)
    @settings(max_examples=40, deadline=None)
    def test_c2r_matches_sequential_kernel(self, mn, threads):
        m, n = mn
        A = np.arange(m * n, dtype=np.float64)
        got = A.copy()
        with ParallelTranspose(threads) as pt:
            pt.c2r(got, m, n)
        ref = A.copy()
        transpose_inplace(ref, m, n, algorithm="c2r")
        np.testing.assert_array_equal(got, ref)

    @given(dim_pairs, thread_counts)
    @settings(max_examples=40, deadline=None)
    def test_r2c_inverts_c2r(self, mn, threads):
        m, n = mn
        A = np.arange(m * n, dtype=np.float64)
        buf = A.copy()
        with ParallelTranspose(threads) as pt:
            pt.c2r(buf, m, n)
            pt.r2c(buf, m, n)
        np.testing.assert_array_equal(buf, A)

    @given(dim_pairs, thread_counts, st.sampled_from(["C", "F"]))
    @settings(max_examples=40, deadline=None)
    def test_transpose_inplace_end_to_end(self, mn, threads, order):
        m, n = mn
        A = np.arange(m * n, dtype=np.float64).reshape(m, n)
        buf = A.ravel(order=order).copy()
        parallel_transpose_inplace(buf, m, n, order, n_threads=threads)
        np.testing.assert_array_equal(buf, A.T.ravel(order=order))

    def test_buffer_validated(self):
        with ParallelTranspose(1) as pt:
            with pytest.raises(ValueError):
                pt.c2r(np.zeros(5), 2, 3)
            with pytest.raises(ValueError):
                pt.r2c(np.zeros(5), 2, 3)
            with pytest.raises(ValueError):
                pt.transpose_inplace(np.zeros(6), 2, 3, "Z")

    def test_medium_matrix_many_threads(self):
        rng = np.random.default_rng(7)
        m, n = 173, 240
        A = rng.standard_normal((m, n))
        buf = A.ravel().copy()
        parallel_transpose_inplace(buf, m, n, n_threads=8)
        np.testing.assert_array_equal(buf, A.T.ravel())
