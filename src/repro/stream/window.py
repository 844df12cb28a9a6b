"""Byte-budgeted resident window over a memory-mapped matrix file.

Out-of-core execution needs one invariant the raw ``np.memmap`` path cannot
give: a *bound* on how much of the file is resident at once.  The
:class:`ResidentWindow` provides it.  The file is mapped once, but the
mapping is only ever *touched* through band-granular load/store calls, and
every call hands the touched pages back to the kernel
(``madvise(MADV_DONTNEED)``) one I/O block at a time, so the process's
resident set stays at (band buffers) + (one I/O block) + interpreter
baseline regardless of file size.

Flush ordering — the contract the banded race proof
(:func:`repro.analysis.racecheck.check_banded_schedule`) depends on:

1. a band is **loaded** (copied out of the mapping into a RAM buffer, each
   I/O block's touched pages dropped immediately — they are clean);
2. the band is permuted entirely in RAM;
3. the band is **stored** (written through the mapping, each I/O block's
   pages dropped as it is written) before the buffer it left takes the
   next band.  The op-end ``flush()`` (``MS_SYNC``) is the only barrier:
   dropped dirty pages stay in the page cache until the kernel's own
   writeback or that ``msync`` writes them.

Because the proof guarantees all band rectangles of a pass are pairwise
disjoint, no other band of the pass can observe — or clobber — a stored
band's elements, so step 3 may overlap the load of another band (the
pipelined executor does exactly that).  There is no per-band ``msync``:
``MS_ASYNC`` has been a no-op on Linux since 2.6.19, and a synchronous
one per band would stall every store on the device.

Two band geometries cover every decomposition pass:

* **row bands** ``[r0, r1)`` — contiguous byte ranges of a row-major file;
* **column bands** ``[c0, c1)`` — strided, one ``c1 - c0`` span per row.

Both are copied in blocks of whole rows sized to the I/O block budget,
each block's pages dropped before the next one faults in, so even a band
copy respects the byte budget.

Environment knobs (see docs/STREAMING.md):

* ``REPRO_STREAM_WINDOW`` — default window byte budget (suffixes k/m/g
  accepted); the library default is 256 MiB.
* ``REPRO_STREAM_IO_BLOCK`` — byte budget of one block of a band copy;
  defaults to window/4 (at least 4 MiB).
"""

from __future__ import annotations

import mmap
import os
import sys
from pathlib import Path

import numpy as np

__all__ = [
    "ResidentWindow",
    "DEFAULT_WINDOW_BYTES",
    "WINDOW_ENV",
    "IO_BLOCK_ENV",
    "default_window_bytes",
    "parse_bytes",
    "drop_pages",
    "sync_pages",
    "sync_pages_async",
]

#: library default for the resident-window byte budget
DEFAULT_WINDOW_BYTES = 256 * 1024 * 1024

#: environment override for the default window budget
WINDOW_ENV = "REPRO_STREAM_WINDOW"

#: environment override for the strided-copy I/O block budget
IO_BLOCK_ENV = "REPRO_STREAM_IO_BLOCK"

_PAGE = mmap.PAGESIZE

_SUFFIXES = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}

#: madvise(MADV_DONTNEED) availability (Linux; absent on some platforms —
#: the window then degrades to msync-only and the RSS bound is advisory)
_HAS_MADVISE = hasattr(mmap.mmap, "madvise") and hasattr(mmap, "MADV_DONTNEED")


def parse_bytes(text: str | int) -> int:
    """Parse a byte count: plain int or int with a k/m/g suffix."""
    if isinstance(text, int):
        value = text
    else:
        s = str(text).strip().lower()
        mult = 1
        if s and s[-1] in _SUFFIXES:
            mult = _SUFFIXES[s[-1]]
            s = s[:-1]
        try:
            value = int(s) * mult
        except ValueError:
            raise ValueError(f"unparseable byte count {text!r}") from None
    if value < 1:
        raise ValueError(f"byte count must be >= 1, got {value}")
    return value


def default_window_bytes() -> int:
    """The resident-window budget: ``REPRO_STREAM_WINDOW`` or 256 MiB."""
    env = os.environ.get(WINDOW_ENV)
    if env:
        return parse_bytes(env)
    return DEFAULT_WINDOW_BYTES


def _page_span(lo: int, hi: int, limit: int) -> tuple[int, int]:
    """Page-align ``[lo, hi)`` outward and clamp it to ``[0, limit)``."""
    start = (max(0, lo) // _PAGE) * _PAGE
    stop = min(limit, ((hi + _PAGE - 1) // _PAGE) * _PAGE)
    return start, stop


def drop_pages(mapping: mmap.mmap, lo: int, hi: int) -> None:
    """Hand the pages backing bytes ``[lo, hi)`` back to the kernel.

    For a shared file mapping ``MADV_DONTNEED`` only drops residency —
    dirty pages are still written back and re-faults read the file — so
    this is always safe; it is what keeps the RSS bounded by the window.
    """
    if not _HAS_MADVISE:
        return
    start, stop = _page_span(lo, hi, len(mapping))
    if stop > start:
        mapping.madvise(mmap.MADV_DONTNEED, start, stop - start)


def sync_pages(mapping: mmap.mmap, lo: int, hi: int) -> None:
    """``msync`` the pages backing bytes ``[lo, hi)`` (then droppable)."""
    start, stop = _page_span(lo, hi, len(mapping))
    if stop > start:
        mapping.flush(start, stop - start)


# msync(2) MS_ASYNC on Linux.  Python's mmap.flush() is MS_SYNC-only.  Since
# Linux 2.6.19 an MS_ASYNC msync starts no I/O (the kernel tracks dirty
# pages anyway), so on Linux this call changes neither residency nor
# durability; the op-end MS_SYNC is the only barrier.
_MS_ASYNC = 1

_libc = None
_async_broken = False


def _msync_fn():
    global _libc
    if _libc is None:
        import ctypes

        _libc = ctypes.CDLL(None, use_errno=True)
    return _libc.msync


def sync_pages_async(mapping: mmap.mmap, lo: int, hi: int) -> None:
    """``msync(MS_ASYNC)`` over bytes ``[lo, hi)``: returns without
    blocking.

    On Linux it starts no writeback (see above); durability still comes
    from the next full :func:`sync_pages` / ``flush()``.  Falls back to
    the synchronous :func:`sync_pages` on platforms without a callable
    ``msync``.
    """
    global _async_broken
    if _async_broken or not sys.platform.startswith("linux"):
        sync_pages(mapping, lo, hi)
        return
    start, stop = _page_span(lo, hi, len(mapping))
    if stop <= start:
        return
    import ctypes

    buf = (ctypes.c_char * 0).from_buffer(mapping)
    try:
        addr = ctypes.addressof(buf)
    finally:
        del buf
    try:
        rc = _msync_fn()(
            ctypes.c_void_p(addr + start),
            ctypes.c_size_t(stop - start),
            ctypes.c_int(_MS_ASYNC),
        )
    except (OSError, AttributeError):
        _async_broken = True
        sync_pages(mapping, lo, hi)
        return
    if rc != 0:
        _async_broken = True
        sync_pages(mapping, lo, hi)


class ResidentWindow:
    """Band-granular, byte-budgeted access to an ``rows x cols`` file matrix.

    Parameters
    ----------
    path:
        Raw binary file of exactly ``rows * cols`` elements of ``dtype``
        (row-major with respect to the ``(rows, cols)`` view).
    window_bytes:
        Resident byte budget of the band buffers (default:
        :func:`default_window_bytes`).  The window only copies the bands
        it is handed; the banded executor sizes them so its buffers fit
        the budget except when a single iteration unit (row, column or
        rotation group) already exceeds it — the effective budget is
        ``max(window_bytes, one iteration unit)``.
    io_block_bytes:
        Transient page budget of one block of a band copy (default:
        ``window_bytes // 4``, at least 4 MiB).
    mode:
        ``"r+"`` (default) or ``"r"`` for read-only consumers.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        rows: int,
        cols: int,
        dtype,
        *,
        window_bytes: int | None = None,
        io_block_bytes: int | None = None,
        mode: str = "r+",
    ):
        if rows < 1 or cols < 1:
            raise ValueError(f"invalid matrix shape {rows}x{cols}")
        self.path = Path(path)
        self.rows = int(rows)
        self.cols = int(cols)
        self.dtype = np.dtype(dtype)
        expected = self.rows * self.cols * self.dtype.itemsize
        actual = self.path.stat().st_size
        if actual != expected:
            raise ValueError(
                f"{self.path} holds {actual} bytes; "
                f"{rows}x{cols} {self.dtype} needs {expected}"
            )
        self.window_bytes = (
            default_window_bytes() if window_bytes is None
            else parse_bytes(window_bytes)
        )
        if io_block_bytes is None:
            env = os.environ.get(IO_BLOCK_ENV)
            # Floor at 4 MiB: the block only bounds *transient* residency
            # (pages are dropped before the next block), and sub-page
            # blocks would turn a column-band copy into a per-row syscall
            # storm without tightening the band budget at all.
            io_block_bytes = (
                parse_bytes(env) if env
                else max(4 * 1024 * 1024, self.window_bytes // 4)
            )
        self.io_block_bytes = max(_PAGE, int(io_block_bytes))
        self._mm = np.memmap(
            self.path, dtype=self.dtype, mode=mode, shape=(self.rows * self.cols,)
        )
        self.view = self._mm.reshape(self.rows, self.cols)
        self._row_bytes = self.cols * self.dtype.itemsize
        #: lifetime accounting (exported through stream metrics)
        self.bytes_read = 0
        self.bytes_written = 0
        self.loads = 0
        self.stores = 0

    # -- residency plumbing --------------------------------------------------

    @property
    def nbytes(self) -> int:
        return self.rows * self.cols * self.dtype.itemsize

    def _drop_rows(self, r0: int, r1: int) -> None:
        drop_pages(self._mm._mmap, r0 * self._row_bytes, r1 * self._row_bytes)

    def _blocks(self, r0: int, r1: int, width: int):
        """``[i0, i1)`` row blocks of ``[r0, r1)`` whose touched pages (one
        ``width``-element span plus page-granularity slop per row) fit the
        I/O block budget."""
        per_row = width * self.dtype.itemsize + _PAGE
        step = max(1, self.io_block_bytes // per_row)
        for i0 in range(r0, r1, step):
            yield i0, min(r1, i0 + step)

    def _load(self, r0: int, r1: int, c0: int, c1: int, out) -> np.ndarray:
        shape = (r1 - r0, c1 - c0)
        if out is None:
            out = np.empty(shape, dtype=self.dtype)
        elif out.shape != shape or out.dtype != self.dtype:
            raise ValueError(
                f"out is {out.shape} {out.dtype}; band needs {shape} {self.dtype}"
            )
        for i0, i1 in self._blocks(r0, r1, c1 - c0):
            out[i0 - r0:i1 - r0] = self.view[i0:i1, c0:c1]
            self._drop_rows(i0, i1)  # clean pages: drop costs nothing
        self.bytes_read += out.nbytes
        self.loads += 1
        return out

    def _store(self, r0: int, r1: int, c0: int, c1: int, band) -> None:
        bview = band.reshape(r1 - r0, c1 - c0)
        for i0, i1 in self._blocks(r0, r1, c1 - c0):
            self.view[i0:i1, c0:c1] = bview[i0 - r0:i1 - r0]
            self._drop_rows(i0, i1)
        self.bytes_written += bview.nbytes
        self.stores += 1

    # -- row bands (contiguous byte ranges) ----------------------------------

    def load_rows(self, r0: int, r1: int, out: np.ndarray | None = None) -> np.ndarray:
        """Materialise rows ``[r0, r1)`` into a RAM band buffer (``out``,
        shaped ``(r1 - r0, cols)``, or a fresh one)."""
        return self._load(r0, r1, 0, self.cols, out)

    def store_rows(self, r0: int, r1: int, band: np.ndarray) -> None:
        """Write a row band back and drop its pages, one I/O block at a
        time (flush step 3 of the module contract)."""
        self._store(r0, r1, 0, self.cols, band)

    # -- column bands (strided) ----------------------------------------------

    def load_cols(self, c0: int, c1: int, out: np.ndarray | None = None) -> np.ndarray:
        """Materialise columns ``[c0, c1)`` (all rows) into a RAM band
        buffer (``out``, shaped ``(rows, c1 - c0)``, or a fresh one)."""
        return self._load(0, self.rows, c0, c1, out)

    def store_cols(self, c0: int, c1: int, band: np.ndarray) -> None:
        """Write a column band back and drop its pages, one I/O block at a
        time."""
        self._store(0, self.rows, c0, c1, band)

    # -- lifecycle -----------------------------------------------------------

    def flush(self) -> None:
        """Full ``msync`` of the mapping (the end-of-op durability point)."""
        self._mm.flush()

    def close(self) -> None:
        """Flush and release the mapping (idempotent)."""
        if self._mm is not None:
            self._mm.flush()
            drop_pages(self._mm._mmap, 0, self.nbytes)
            self.view = None
            self._mm = None

    def __enter__(self) -> "ResidentWindow":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            # Already unwinding: close best-effort so an msync error cannot
            # mask the pass failure (the executor records it instead).
            try:
                self.close()
            except OSError:
                pass
            return
        self.close()
