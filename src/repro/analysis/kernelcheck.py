"""Static verifier for the generated native kernels.

PR 2's algebra module proves the *Python* plan machinery implements the
paper's equations; the native backend then re-implements those passes as
generated C that none of that analysis sees.  This module closes the gap:
it takes the exact translation unit ``native.codegen`` emits for a
concrete ``(algorithm, m, n, itemsize)`` plan and proves, by abstract
interpretation (:mod:`repro.analysis.cinterp` — no compiler involved),
that the C does what the algebra says:

``parse`` / ``symbols`` / ``layout``
    The unit fits the checked C subset and exports every entry point the
    runtime binds (``repro_run``, ``repro_run_batch``, per-pass symbols
    and their ``_batch`` wrappers).
``plan-constants``
    The inlined ``M/N/A/B/C`` and ``NPASSES`` literals match the
    decomposition.
``fastdiv-*``
    Each ``DIV_X``/``MOD_X`` macro is the canonical fixed-point-reciprocal
    form, its divisor literal matches the decomposition constant, and the
    inlined ``(multiplier, shift)`` pair computes exact ``//`` and ``%``
    over the full operand range the shape can generate — exhaustively (in
    the wrapping uint64 domain, exactly as compiled code evaluates it) up
    to 2**22 operands, above that by recomputation against
    ``compute_magic`` plus boundary probes near ``2**31 - 1``.  A handful
    of probes are additionally evaluated *through the interpreter* so the
    macro text that the pass bodies expand agrees with the extraction.
``pass*-exec`` / ``pass*-semantics``
    Running each pass over its full extent on an identity-initialised
    buffer faults nowhere (bounds, liveness, definedness, leaks — see
    ``cinterp``) and lands exactly the permutation the corresponding
    Eq. 23-36 plan step derives.
``pass*-chunks-t<k>``
    Re-running the pass chunk-by-chunk over the ``balanced_chunks``
    schedule (the geometry ``ParallelTranspose`` dispatches) writes
    pairwise-disjoint element sets whose union equals the full-range
    write set, reads only inside each chunk's own rectangle, and composes
    to the same permutation — the property that lets a compiled kernel
    inherit the PR-2 racecheck guarantee.
``pass*-banded``
    For the column-facing passes, re-running the pass through its
    band-rebased entry point (``repro_pass_<k>_banded``) against buffers
    holding *only* each band's columns — chunked within each band, exactly
    the geometry the out-of-core ``BandedExecutor`` drives — composes to
    the same permutation.  The band buffers are allocated at exactly the
    band's size, so any addressing that escapes the rebased stride faults
    as an out-of-bounds access rather than silently landing elsewhere.
``plan-composition`` / ``algebra-equivalence``
    ``repro_run`` equals the composition of the verified passes, and that
    composition equals the closed-form transposition map
    (``transposition_source_map`` for C2R, its inverse for R2C — the R2C
    kernel runs on the swapped view, so composing it with the
    transposition of that view is the identity).
``batch-run``
    ``repro_run_batch`` applies the same permutation independently to
    each of ``k`` consecutive tiles.
``pass*-lines``
    For the passes that stripe columns (the column shuffle, and the narrow
    rotation when its line-alignment period fits in 64 columns), every
    stripe after a call's first starts on a 64-byte boundary — read off the
    stage-in copies of row 0, for full-width, chunked and banded calls.
``scratch-bound``
    No call holds more than ``64 * max(m, n) * itemsize + 4 * max(m, n)``
    bytes of scratch at once — the paper's ``O(max(m, n))`` auxiliary
    space, enforced by the interpreter on every call above and reported
    here with the peak seen.

Every certificate from ``pass*-exec`` to ``batch-run`` is proven twice:
against buffers at a cache-line-aligned modelled address, and (names
suffixed ``@16``) at 16 bytes past a line, where the kernels' run-time
head-stripe peel takes its other branch.

Element values are provenance tokens, so "the buffer after the run" *is*
the gather map the C computed; every comparison above is exact, not
sampled.  The only sampled ingredient is the fastdiv probe set for shapes
whose operand range exceeds the exhaustive cap, as documented in
``docs/ANALYSIS.md``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import gcd
from time import perf_counter

import numpy as np

from ..core.indexing import Decomposition
from ..core.plan import TransposePlan
from ..native.codegen import (
    LINE,
    banded_pass_symbol,
    generate_source,
    ineligible_reason,
    pass_symbol,
    stripe_unit_bytes,
)
from ..parallel.partition import balanced_chunks
from ..strength.magic import compute_magic
from .algebra import Check, transposition_source_map
from .cinterp import CInterp, CInterpError

__all__ = [
    "KernelReport",
    "NativeReport",
    "DEFAULT_CONFIGS",
    "BASE_OFFSETS",
    "verify_kernel",
    "verify_native",
]

#: curated CI verification set: the bench-smoke shapes (incl. F-order and
#: the non-square 500x1000), odd/prime and degenerate shapes, and small
#: shapes covering every element width the codegen supports.
DEFAULT_CONFIGS: tuple[tuple[int, int, str, int], ...] = (
    (256, 384, "C", 8),
    (256, 384, "F", 8),
    (384, 256, "C", 8),
    (512, 512, "C", 8),
    (500, 1000, "C", 8),
    (7, 13, "C", 8),
    (13, 7, "C", 8),
    (1, 17, "C", 8),
    (17, 1, "C", 8),
    (12, 18, "C", 1),
    (12, 18, "F", 2),
    (12, 96, "C", 16),
    (6, 4, "C", 4),
)

#: modelled buffer base addresses (bytes past a cache line) every kernel
#: is proven at: a line-aligned buffer, and the 16 mod 64 placement numpy
#: gives large arrays
BASE_OFFSETS = (0, 16)

#: largest operand range checked exhaustively for fastdiv exactness;
#: larger shapes fall back to recomputation + boundary probes.
FASTDIV_EXHAUSTIVE_CAP = 1 << 22

#: batch verification is skipped above this element count per tile (the
#: batch driver is a loop over verified single-tile runs; re-proving it on
#: the biggest shapes buys nothing for the wall-clock it costs).
BATCH_ELEMS_CAP = 256 * 384


@dataclass
class KernelReport:
    """Every certificate for one generated kernel."""

    m: int
    n: int
    order: str
    algorithm: str
    itemsize: int
    passes: tuple[str, ...] = ()
    seconds: float = 0.0
    checks: list[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "order": self.order,
            "algorithm": self.algorithm,
            "itemsize": self.itemsize,
            "passes": list(self.passes),
            "ok": self.ok,
            "checks": len(self.checks),
            "seconds": round(self.seconds, 3),
            "failures": [c.as_dict() for c in self.failures],
        }


@dataclass
class NativeReport:
    """Aggregate of a kernel-verification sweep."""

    kernels: list[KernelReport] = field(default_factory=list)
    skipped: list[dict] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(k.ok for k in self.kernels)

    @property
    def checks(self) -> int:
        return sum(len(k.checks) for k in self.kernels)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "kernels": len(self.kernels),
            "checks": self.checks,
            "seconds": round(self.seconds, 3),
            "skipped": self.skipped,
            "reports": [k.as_dict() for k in self.kernels],
        }


# --------------------------------------------------------------------------
# fastdiv macro verification

_DIV_RE = re.compile(
    r"^#\s*define\s+DIV_([MNABC])\(x\)\s*"
    r"\(\(int64_t\)\(\(\(uint64_t\)\(x\)\s*\*\s*"
    r"UINT64_C\((\d+)\)\)\s*>>\s*(\d+)\)\)\s*$"
)
_MOD_RE = re.compile(
    r"^#\s*define\s+MOD_([MNABC])\(x\)\s*"
    r"\(\(int64_t\)\(x\)\s*-\s*DIV_([MNABC])\(x\)\s*\*\s*"
    r"INT64_C\((\d+)\)\)\s*$"
)
_CONST_RE = re.compile(r"^#\s*define\s+([MNABC])\s+INT64_C\((\d+)\)\s*$")


def _fastdiv_probes(d: int, hi: int) -> np.ndarray:
    """Deterministic operands stressing quotient boundaries of ``d``."""
    pts = {0, 1, 2, d - 1, d, d + 1, 2 * d - 1, 2 * d, hi - 1, hi // 2}
    for mult in (hi // d if d else 0, (1 << 31) // max(d, 1)):
        for delta in (-1, 0, 1):
            pts.add(mult * d + delta)
    pts.update(range((1 << 31) - 8, 1 << 31))
    arr = np.array(sorted(p for p in pts if 0 <= p < (1 << 31)), dtype=np.int64)
    return arr


def _check_fastdiv(
    checks: list[Check],
    macros,
    dec: Decomposition,
    probe_interp: CInterp | None,
) -> None:
    hi = dec.m * dec.n + dec.m + dec.n
    for name, d in (
        ("M", dec.m), ("N", dec.n), ("A", dec.a), ("B", dec.b), ("C", dec.c)
    ):
        label = f"fastdiv-{name}"
        div = macros.get(f"DIV_{name}")
        mod = macros.get(f"MOD_{name}")
        if div is None or mod is None:
            checks.append(Check(label, False, "DIV/MOD macro missing"))
            continue
        dmo = _DIV_RE.match(div.raw)
        mmo = _MOD_RE.match(mod.raw)
        if dmo is None or mmo is None:
            bad = div.raw if dmo is None else mod.raw
            checks.append(
                Check(label, False, f"non-canonical macro form: {bad!r}")
            )
            continue
        mult, shift = int(dmo.group(2)), int(dmo.group(3))
        if mmo.group(2) != name:
            checks.append(
                Check(label, False, f"MOD_{name} built on DIV_{mmo.group(2)}")
            )
            continue
        if int(mmo.group(3)) != d:
            checks.append(
                Check(
                    label, False,
                    f"MOD_{name} divisor literal {mmo.group(3)} != {d}",
                )
            )
            continue
        # exact //-agreement in the wrapping uint64 domain compiled code
        # evaluates the macro in
        if hi <= FASTDIV_EXHAUSTIVE_CAP:
            x = np.arange(hi, dtype=np.uint64)
            mode = f"exhaustive over [0, {hi})"
        else:
            mg = compute_magic(d, nbits=31)
            if (mg.multiplier, mg.shift) != (mult, shift):
                checks.append(
                    Check(
                        label, False,
                        f"literals ({mult}, {shift}) != compute_magic "
                        f"({mg.multiplier}, {mg.shift})",
                    )
                )
                continue
            x = _fastdiv_probes(d, hi).astype(np.uint64)
            mode = f"recomputed + {x.size} boundary probes"
        with np.errstate(over="ignore"):
            q = ((x * np.uint64(mult)) >> np.uint64(shift)).astype(np.int64)
        exact = (x.astype(np.int64) // d).astype(np.int64)
        bad = np.nonzero(q != exact)[0]
        if bad.size:
            i = int(bad[0])
            checks.append(
                Check(
                    label, False,
                    f"x={int(x[i])}: magic gives {int(q[i])}, exact //{d} "
                    f"is {int(exact[i])} ({mode})",
                )
            )
            continue
        # and through the interpreter, so the macro the pass bodies expand
        # agrees with what the regex extracted
        detail = mode
        if probe_interp is not None:
            probes = [p for p in (0, 1, d - 1, d, d + 1, hi - 1) if p >= 0]
            ok = True
            for p in probes:
                try:
                    got_q = probe_interp.call(f"__probe_div_{name}", p)
                    got_r = probe_interp.call(f"__probe_mod_{name}", p)
                except CInterpError as exc:
                    checks.append(Check(label, False, f"probe fault: {exc}"))
                    ok = False
                    break
                if got_q != p // d or got_r != p % d:
                    checks.append(
                        Check(
                            label, False,
                            f"interpreted macro at x={p}: ({got_q}, {got_r})"
                            f" != ({p // d}, {p % d})",
                        )
                    )
                    ok = False
                    break
            if not ok:
                continue
            detail += ", interpreter probes agree"
        checks.append(Check(label, True, detail))


def _probe_suffix() -> str:
    lines = []
    for name in "MNABC":
        lines.append(
            f"int64_t __probe_div_{name}(int64_t x) {{ return DIV_{name}(x); }}"
        )
        lines.append(
            f"int64_t __probe_mod_{name}(int64_t x) {{ return MOD_{name}(x); }}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------------
# pass / schedule verification


def _axis_cols(axis: str, lo: int, hi: int, dec: Decomposition):
    """Column interval a chunk of the given parallel axis may touch, or
    ``None`` when the chunk owns whole rows."""
    if axis == "groups":
        return lo * dec.b, hi * dec.b
    if axis == "cols":
        return lo, hi
    return None  # rows: element interval [lo*n, hi*n)


def _contained(elems: set[int], axis: str, lo: int, hi: int,
               dec: Decomposition) -> str | None:
    """``None`` if every element index lies in the chunk's rectangle, else
    a description of the first escape."""
    if not elems:
        return None
    arr = np.fromiter(elems, dtype=np.int64, count=len(elems))
    mn = dec.m * dec.n
    oob = arr[(arr < 0) | (arr >= mn)]
    if oob.size:
        return f"element {int(oob[0])} outside the {dec.m}x{dec.n} matrix"
    span = _axis_cols(axis, lo, hi, dec)
    if span is None:
        bad = arr[(arr < lo * dec.n) | (arr >= hi * dec.n)]
        if bad.size:
            e = int(bad[0])
            return (
                f"element {e} (row {e // dec.n}) outside row chunk "
                f"[{lo}, {hi})"
            )
        return None
    c0, c1 = span
    cols = arr % dec.n
    bad = arr[(cols < c0) | (cols >= c1)]
    if bad.size:
        e = int(bad[0])
        return (
            f"element {e} (col {e % dec.n}) outside column span "
            f"[{c0}, {c1}) of {axis} chunk [{lo}, {hi})"
        )
    return None


def verify_kernel(
    m: int,
    n: int,
    *,
    order: str = "C",
    algorithm: str = "auto",
    itemsize: int = 8,
    source: str | None = None,
    thread_counts: tuple[int, ...] = (2, 4),
    batch_tiles: int = 2,
    check_batch: bool | None = None,
) -> KernelReport:
    """Verify one generated kernel end to end.

    ``source`` overrides the translation unit (the mutation harness passes
    a deliberately corrupted one); by default the kernel is generated
    fresh from the plan's decomposition, exactly as the runtime would.
    """
    start = perf_counter()
    plan = TransposePlan(m, n, order=order, algorithm=algorithm)
    dec = plan.dec
    report = KernelReport(
        m=m, n=n, order=order, algorithm=plan.algorithm, itemsize=itemsize
    )
    checks = report.checks
    try:
        reason = ineligible_reason(dec, itemsize)
        if reason is not None:
            checks.append(Check("eligible", False, reason))
            return report
        spec = generate_source(dec, plan.algorithm, itemsize)
        if source is None:
            source = spec.source
        report.passes = tuple(p.name for p in spec.passes)
        mn = dec.m * dec.n
        budget = 1_000_000 + 48 * mn

        try:
            interp = CInterp(source, itemsize=itemsize, budget=budget)
        except CInterpError as exc:
            checks.append(Check("parse", False, str(exc)))
            return report
        checks.append(Check("parse", True))

        needed = {"repro_run", "repro_run_batch"}
        for p in spec.passes:
            needed.add(pass_symbol(p.kind))
            needed.add(pass_symbol(p.kind) + "_batch")
            bsym = banded_pass_symbol(p.kind)
            if bsym is not None:
                needed.add(bsym)
        missing = sorted(needed - interp.functions.keys())
        checks.append(
            Check(
                "symbols",
                not missing,
                f"missing: {', '.join(missing)}" if missing else "",
            )
        )
        if missing:
            return report

        if spec.passes != plan.passes:
            checks.append(
                Check(
                    "layout", False,
                    f"codegen passes {[p.kind for p in spec.passes]} != "
                    f"plan passes {[p.kind for p in plan.passes]}",
                )
            )
            return report
        checks.append(Check("layout", True))

        # inlined decomposition constants
        const_fail = None
        for cname, want in (
            ("M", dec.m), ("N", dec.n), ("A", dec.a), ("B", dec.b),
            ("C", dec.c),
        ):
            mac = interp.macros.get(cname)
            mo = _CONST_RE.match(mac.raw) if mac is not None else None
            if mo is None or int(mo.group(2)) != want:
                const_fail = f"#define {cname} != {want}"
                break
        npasses = interp.macros.get("NPASSES")
        if const_fail is None and (
            npasses is None or npasses.body != [str(len(spec.passes))]
        ):
            const_fail = f"NPASSES != {len(spec.passes)}"
        checks.append(Check("plan-constants", const_fail is None,
                            const_fail or ""))

        try:
            probe_interp = CInterp(
                source + "\n" + _probe_suffix(), itemsize=itemsize
            )
        except CInterpError:
            probe_interp = None
        _check_fastdiv(checks, interp.macros, dec, probe_interp)

        # -- every entry point, at every modelled base alignment ---------
        mx = max(dec.m, dec.n)
        interp.scratch_limit = limit = 64 * mx * itemsize + 4 * mx
        peak = 0
        for off in BASE_OFFSETS:
            sfx = "" if off == 0 else f"@{off}"
            ok, state, seen_peak = _verify_entry_points(
                checks, interp, plan, spec, dec, itemsize, off, sfx,
                thread_counts=thread_counts, budget=budget,
                batch_tiles=batch_tiles, check_batch=check_batch,
            )
            peak = max(peak, seen_peak)
            if not ok:
                return report
        checks.append(
            Check(
                "scratch-bound", True,
                f"peak {peak} B per call <= 64*max(m, n)*itemsize + "
                f"4*max(m, n) = {limit} B",
            )
        )
    finally:
        report.seconds = perf_counter() - start
    return report


def _misaligned_stripe(copies, base: int, row_bytes: int, lo: int,
                       origin: int, unit_bytes: int) -> str | None:
    """``None`` if every stripe but the first of a call starts on a cache
    line, else a description of the first that does not.

    Stripe starts are read off the stage-in copies out of row 0 of the
    buffer.  A call whose first column no unit start can bring onto a line
    (its address is not a multiple of gcd(unit bytes, 64)) is exempt."""
    first = (lo - origin) * unit_bytes
    if (base + first) % gcd(unit_bytes, LINE):
        return None
    for off in sorted({o for o in copies if o < row_bytes}):
        if off != first and (base + off) % LINE:
            return (
                f"stripe at byte {off} of row 0 starts {(base + off) % LINE} "
                f"bytes into a cache line (buffer base {base % LINE} mod "
                f"{LINE}, chunk from unit {lo})"
            )
    return None


def _verify_entry_points(checks, interp, plan, spec, dec, itemsize, off, sfx,
                         *, thread_counts, budget, batch_tiles, check_batch):
    """Every per-pass, whole-plan and batch certificate against buffers
    whose element 0 sits ``off`` bytes past a cache line.  Returns ``(ok,
    composed permutation, peak scratch bytes seen)``."""
    mn = dec.m * dec.n
    peak = 0

    def call(*args, **kw):
        nonlocal peak
        try:
            return interp.call(*args, **kw)
        finally:
            peak = max(peak, interp.peak_scratch)

    def seeded(values):
        buf = interp.new_buffer(values.size, init="undef", base_offset=off)
        buf.obj.cells = dict(enumerate(values.tolist()))
        return buf

    state = np.arange(mn, dtype=np.int64)
    for i, pinfo in enumerate(spec.passes):
        tag = f"pass{i}-{pinfo.name}"
        sym = pass_symbol(pinfo.kind)
        unit = stripe_unit_bytes(pinfo.kind, dec, itemsize)
        misaligned = None

        def stripes(buf, row_elems, lo, origin):
            nonlocal misaligned
            if unit is not None and misaligned is None:
                misaligned = _misaligned_stripe(
                    interp.copies, buf.base, row_elems * itemsize, lo,
                    origin, unit,
                )

        # reference semantics: the engine's numpy pass body, with index
        # blocks from its O(max(m, n)) tables
        expected = state.copy()
        plan.run_chunk(expected.reshape(dec.m, dec.n), i, 0, pinfo.extent)

        buf = seeded(state)
        try:
            rc = call(sym, buf, 0, pinfo.extent)
        except CInterpError as exc:
            checks.append(Check(f"{tag}-exec{sfx}", False, str(exc)))
            return False, state, peak
        if rc != 0:
            checks.append(Check(f"{tag}-exec{sfx}", False, f"returned {rc}"))
            return False, state, peak
        stripes(buf, dec.n, 0, 0)
        full_writes = set(interp.writes)
        escape = _contained(
            full_writes | interp.reads, pinfo.axis, 0, pinfo.extent, dec
        )
        checks.append(Check(f"{tag}-exec{sfx}", escape is None, escape or ""))
        got = np.asarray(buf.values(), dtype=np.int64)
        bad = np.nonzero(got != expected)[0]
        checks.append(
            Check(
                f"{tag}-semantics{sfx}",
                bad.size == 0,
                ""
                if bad.size == 0
                else (
                    f"element {int(bad[0])}: kernel gathered "
                    f"{int(got[bad[0]])}, Eq. step says "
                    f"{int(expected[bad[0]])} ({bad.size} mismatches)"
                ),
            )
        )
        if bad.size:
            return False, state, peak

        for t in thread_counts:
            fail = None
            buf = seeded(state)
            seen: set[int] = set()
            union: set[int] = set()
            for ch in balanced_chunks(pinfo.extent, t):
                try:
                    rc = call(sym, buf, ch.start, ch.stop)
                except CInterpError as exc:
                    fail = f"chunk [{ch.start}, {ch.stop}): {exc}"
                    break
                if rc != 0:
                    fail = f"chunk [{ch.start}, {ch.stop}) returned {rc}"
                    break
                stripes(buf, dec.n, ch.start, 0)
                w = interp.writes
                clash = seen & w
                if clash:
                    fail = (
                        f"chunk [{ch.start}, {ch.stop}) rewrites element "
                        f"{min(clash)} already written by an earlier chunk"
                    )
                    break
                escape = _contained(
                    w | interp.reads, pinfo.axis, ch.start, ch.stop, dec
                )
                if escape is not None:
                    fail = f"chunk [{ch.start}, {ch.stop}): {escape}"
                    break
                seen |= w
                union |= w
            if fail is None and union != full_writes:
                d = len(full_writes - union) or len(union - full_writes)
                fail = (
                    f"chunk union misses {d} elements of the full-range "
                    "write set"
                )
            if fail is None:
                got = np.asarray(buf.values(), dtype=np.int64)
                bad = np.nonzero(got != expected)[0]
                if bad.size:
                    fail = (
                        f"chunked result diverges at element "
                        f"{int(bad[0])}"
                    )
            checks.append(
                Check(f"{tag}-chunks-t{t}{sfx}", fail is None, fail or "")
            )
            if fail is not None:
                return False, state, peak

        # banded entry point: the pass applied band-by-band to buffers
        # holding only each band's columns (the BandedExecutor geometry);
        # buffers are sized to the band, so a rebase bug faults oob.
        bsym = banded_pass_symbol(pinfo.kind)
        if bsym is not None:
            bunit = dec.b if pinfo.axis == "groups" else 1
            fail = None
            work = state.copy().reshape(dec.m, dec.n)
            for bnd in balanced_chunks(pinfo.extent, min(3, pinfo.extent)):
                width = (bnd.stop - bnd.start) * bunit
                c0 = bnd.start * bunit
                band_state = work[:, c0:c0 + width].ravel()  # repro-lint: allow(implicit-copy) band seed for the interpreter, not a hot path
                buf = seeded(band_state)
                for ch in balanced_chunks(bnd.stop - bnd.start, 2):
                    lo = bnd.start + ch.start
                    try:
                        rc = call(
                            bsym, buf, lo, bnd.start + ch.stop, width,
                            bnd.start,
                        )
                    except CInterpError as exc:
                        fail = (
                            f"band [{bnd.start}, {bnd.stop}) chunk "
                            f"[{ch.start}, {ch.stop}): {exc}"
                        )
                        break
                    if rc != 0:
                        fail = f"band [{bnd.start}, {bnd.stop}) returned {rc}"
                        break
                    stripes(buf, width, lo, bnd.start)
                if fail is not None:
                    break
                got = np.asarray(buf.values(), dtype=np.int64)
                work[:, c0:c0 + width] = got.reshape(dec.m, width)
            if fail is None:
                bad = np.nonzero(work.ravel() != expected)[0]
                if bad.size:
                    e = int(bad[0])
                    fail = (
                        f"banded composition diverges at element {e}: "
                        f"{int(work.ravel()[e])} != {int(expected[e])}"
                    )
            checks.append(
                Check(f"{tag}-banded{sfx}", fail is None, fail or "")
            )
            if fail is not None:
                return False, state, peak

        # line-true stripes: every stripe after a call's first starts on a
        # cache line (full-width, chunked and banded calls alike)
        if unit is not None:
            checks.append(
                Check(f"{tag}-lines{sfx}", misaligned is None,
                      misaligned or "")
            )
            if misaligned is not None:
                return False, state, peak
        state = expected

    # -- whole-plan drivers -----------------------------------------------
    buf = interp.new_buffer(mn, base_offset=off)
    try:
        rc = call("repro_run", buf)
    except CInterpError as exc:
        checks.append(Check(f"plan-composition{sfx}", False, str(exc)))
        return False, state, peak
    got = np.asarray(buf.values(), dtype=np.int64)
    ok = rc == 0 and np.array_equal(got, state)
    checks.append(
        Check(
            f"plan-composition{sfx}",
            ok,
            "" if ok else f"repro_run rc={rc} or != composed passes",
        )
    )
    if not ok:
        return False, state, peak

    tsm = transposition_source_map(dec.m, dec.n)
    if plan.algorithm == "c2r":
        algebra_map = tsm
        rel = "transposition_source_map(dec.m, dec.n)"
    else:
        algebra_map = np.empty_like(tsm)
        algebra_map[tsm] = np.arange(mn, dtype=tsm.dtype)
        rel = "inverse of transposition_source_map(dec.m, dec.n)"
    bad = np.nonzero(got != algebra_map)[0]
    checks.append(
        Check(
            f"algebra-equivalence{sfx}",
            bad.size == 0,
            f"matches {rel}"
            if bad.size == 0
            else (
                f"element {int(bad[0])}: kernel {int(got[bad[0]])} != "
                f"algebra {int(algebra_map[bad[0]])} ({rel})"
            ),
        )
    )
    if bad.size:
        return False, state, peak

    # -- batched driver ---------------------------------------------------
    if check_batch is None:
        check_batch = mn <= BATCH_ELEMS_CAP
    if check_batch and batch_tiles > 1:
        buf = interp.new_buffer(batch_tiles * mn, base_offset=off)
        fail = None
        try:
            rc = call(
                "repro_run_batch", buf, batch_tiles,
                budget=budget * batch_tiles,
            )
        except CInterpError as exc:
            fail = str(exc)
        if fail is None and rc != 0:
            fail = f"returned {rc}"
        if fail is None:
            got = np.asarray(buf.values(), dtype=np.int64)
            want = np.concatenate(
                [state + t * mn for t in range(batch_tiles)]
            )
            bad = np.nonzero(got != want)[0]
            if bad.size:
                e = int(bad[0])
                fail = (
                    f"tile {e // mn} element {e % mn}: "
                    f"{int(got[e])} != {int(want[e])}"
                )
        checks.append(
            Check(
                f"batch-run{sfx}", fail is None,
                fail or f"{batch_tiles} tiles, per-tile map verified",
            )
        )
        if fail is not None:
            return False, state, peak
    return True, state, peak


def verify_native(
    configs=None,
    *,
    thread_counts: tuple[int, ...] = (2, 4),
    batch_tiles: int = 2,
    algorithms: tuple[str, ...] = ("c2r", "r2c"),
    progress=None,
) -> NativeReport:
    """Verify every kernel in a ``(m, n, order, itemsize)`` config sweep,
    for each algorithm, and aggregate the certificates."""
    start = perf_counter()
    if configs is None:
        configs = DEFAULT_CONFIGS
    out = NativeReport()
    for cfg in configs:
        m, n, order, itemsize = cfg
        for algorithm in algorithms:
            dec = (
                Decomposition.of(m, n)
                if (algorithm == "c2r") == (order == "C")
                else Decomposition.of(n, m)
            )
            reason = ineligible_reason(dec, itemsize)
            if reason is not None:
                out.skipped.append(
                    {
                        "m": m, "n": n, "order": order,
                        "itemsize": itemsize, "algorithm": algorithm,
                        "reason": reason,
                    }
                )
                continue
            rep = verify_kernel(
                m, n, order=order, algorithm=algorithm, itemsize=itemsize,
                thread_counts=thread_counts, batch_tiles=batch_tiles,
            )
            out.kernels.append(rep)
            if progress is not None:
                status = "ok" if rep.ok else "FAIL"
                progress(
                    f"kernelcheck {m}x{n} {order} {algorithm} "
                    f"itemsize={itemsize}: {len(rep.checks)} checks "
                    f"{status} ({rep.seconds:.1f}s)"
                )
    out.seconds = perf_counter() - start
    return out
