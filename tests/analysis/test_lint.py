"""AST lint: each rule fires on a minimal offending fixture, respects
suppressions, and the real tree is clean."""

from __future__ import annotations

import textwrap

from repro.analysis.lint import (
    check_source,
    run_lint,
)


def lint(source: str, rel: str, rule: str | None = None):
    """Lint a fixture; with ``rule``, keep only that rule's findings (the
    configured hot/exec modules also produce entry-guard 'not found'
    violations for fixtures that naturally lack the real entry points)."""
    vs = check_source(textwrap.dedent(source), rel)
    if rule is not None:
        vs = [v for v in vs if v.rule == rule]
    return vs


class TestRawDivmod:
    def test_fires_in_hot_module(self):
        vs = lint("x = a % b\n", "parallel/cpu.py", rule="raw-divmod")
        assert len(vs) == 1
        vs = lint("x = a // b\n", "core/plan.py", rule="raw-divmod")
        assert len(vs) == 1

    def test_augmented_forms_fire(self):
        vs = lint("a %= b\n", "strength/reduced.py", rule="raw-divmod")
        assert len(vs) == 1

    def test_silent_outside_hot_modules(self):
        assert lint("x = a % b\n", "core/equations.py") == []

    def test_line_suppression(self):
        vs = lint(
            "x = a % b  # repro-lint: allow(raw-divmod) setup-time only\n",
            "parallel/cpu.py",
            rule="raw-divmod",
        )
        assert vs == []

    def test_def_line_suppression_covers_the_body(self):
        vs = lint(
            """\
            def f(a, b):  # repro-lint: allow(raw-divmod) reference impl
                return a % b
            """,
            "parallel/cpu.py",
            rule="raw-divmod",
        )
        assert vs == []

    def test_suppression_on_any_line_of_multiline_expression(self):
        vs = lint(
            """\
            x = (
                a % b  # repro-lint: allow(raw-divmod) because reasons
            )
            """,
            "parallel/cpu.py",
            rule="raw-divmod",
        )
        assert vs == []


class TestImplicitCopy:
    def test_ravel_fires_in_exec_module(self):
        vs = lint("y = V.ravel()\n", "core/plan.py", rule="implicit-copy")
        assert len(vs) == 1

    def test_reshape_without_guard_fires(self):
        vs = lint(
            """\
            def execute(buf):
                return buf.reshape(4, 6)
            """,
            "core/batched.py",
            rule="implicit-copy",
        )
        assert len(vs) == 1

    def test_reshape_with_contiguity_guard_passes(self):
        vs = lint(
            """\
            def execute(buf):
                if not buf.flags["C_CONTIGUOUS"]:
                    raise ValueError("need contiguous")
                return buf.reshape(4, 6)
            """,
            "core/batched.py",
            rule="implicit-copy",
        )
        assert vs == []

    def test_silent_outside_exec_modules(self):
        assert lint("y = V.ravel()\n", "gpusim/cost.py") == []


class TestEntryGuard:
    def test_missing_guard_in_configured_entry_point_fires(self):
        vs = lint(
            """\
            def transpose_inplace(buf, m, n):
                return buf
            """,
            "core/transpose.py",
        )
        assert any(
            v.rule == "entry-guard" and "transpose_inplace" in v.message for v in vs
        )

    def test_guarded_entry_points_pass(self):
        vs = lint(
            """\
            def transpose_inplace(buf, m, n):
                if not buf.flags["C_CONTIGUOUS"]:
                    raise ValueError("no")
                return buf


            def transpose(A):
                if not A.flags["C_CONTIGUOUS"]:
                    raise ValueError("no")
                return A
            """,
            "core/transpose.py",
            rule="entry-guard",
        )
        assert vs == []


class TestLockDiscipline:
    def test_unlocked_mutation_fires_in_runtime_module(self):
        vs = lint(
            """\
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._counters = {}

                def inc(self, name):
                    self._counters[name] = 1
            """,
            "runtime/metrics.py",
        )
        assert any(v.rule == "lock-discipline" for v in vs)

    def test_locked_mutation_passes(self):
        vs = lint(
            """\
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._counters = {}

                def inc(self, name):
                    with self._lock:
                        self._counters[name] = 1
            """,
            "runtime/metrics.py",
        )
        assert [v for v in vs if v.rule == "lock-discipline"] == []

    def test_init_is_exempt(self):
        vs = lint(
            """\
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._state = 0
            """,
            "runtime/metrics.py",
        )
        assert [v for v in vs if v.rule == "lock-discipline"] == []

    def test_lockless_classes_are_exempt(self):
        vs = lint(
            """\
            class Plain:
                def __init__(self):
                    self.x = 0

                def bump(self):
                    self.x = 1
            """,
            "runtime/metrics.py",
        )
        assert [v for v in vs if v.rule == "lock-discipline"] == []


class TestTraceGranularity:
    def test_recording_in_doubly_nested_loop_fires(self):
        vs = lint(
            """\
            def execute(self, V):
                for kind in self.steps:
                    for row in V:
                        self.registry.observe("pass", 0.1)
            """,
            "core/plan.py",
            rule="trace-granularity",
        )
        assert len(vs) == 1
        assert "loop depth 2" in vs[0].message

    def test_span_and_event_and_inc_all_fire(self):
        src = """\
        def f(tr, reg, items):
            for group in items:
                for x in group:
                    with tr.span("pass.x"):
                        pass
                    tr.event("cache.hit")
                    reg.inc("n")
                    reg.record_call("op", 0.1)
        """
        vs = lint(src, "core/plan.py", rule="trace-granularity")
        assert len(vs) == 4

    def test_per_pass_recording_at_depth_one_passes(self):
        vs = lint(
            """\
            def execute(self, V):
                for kind in self.steps:
                    with self.tracer.span("pass.x"):
                        self.apply(V, kind)
                    self.registry.observe("pass.x", 0.1)
            """,
            "core/plan.py",
            rule="trace-granularity",
        )
        assert vs == []

    def test_nested_def_resets_loop_depth(self):
        # A worker closure defined under two loops runs per chunk, not per
        # element; recording at its top level is per-chunk granularity.
        vs = lint(
            """\
            def schedule(tr, passes, chunks):
                for p in passes:
                    for ch in chunks:
                        def body(sl):
                            with tr.span("worker.chunk"):
                                work(sl)
                        submit(body, ch)
            """,
            "parallel/cpu.py",
            rule="trace-granularity",
        )
        assert vs == []

    def test_while_loops_count_toward_depth(self):
        vs = lint(
            """\
            def f(tr, rows):
                while rows:
                    for r in rows:
                        tr.event("touched")
            """,
            "core/transpose.py",
            rule="trace-granularity",
        )
        assert len(vs) == 1

    def test_suppression_works(self):
        vs = lint(
            """\
            def f(tr, items):
                for group in items:
                    for x in group:
                        tr.event("x")  # repro-lint: allow(trace-granularity) O(c) groups
            """,
            "core/plan.py",
            rule="trace-granularity",
        )
        assert vs == []

    def test_unrelated_methods_in_nested_loops_pass(self):
        vs = lint(
            """\
            def f(out, items):
                for group in items:
                    for x in group:
                        out.append(x)
            """,
            "core/plan.py",
            rule="trace-granularity",
        )
        assert vs == []


class TestExceptionSwallow:
    def test_unbound_broad_except_fires_in_native(self):
        vs = lint(
            """\
            def resolve():
                try:
                    return compile()
                except Exception:
                    return None
            """,
            "native/kernel.py",
            rule="exception-swallow",
        )
        assert len(vs) == 1
        assert "REPRO006" == vs[0].code

    def test_bare_except_fires_in_serve(self):
        vs = lint(
            """\
            def handle():
                try:
                    run()
                except:
                    pass
            """,
            "serve/server.py",
            rule="exception-swallow",
        )
        assert len(vs) == 1
        assert "bare except" in vs[0].message

    def test_tuple_containing_broad_type_fires(self):
        vs = lint(
            """\
            def f():
                try:
                    run()
                except (ValueError, Exception):
                    return 0
            """,
            "native/__init__.py",
            rule="exception-swallow",
        )
        assert len(vs) == 1

    def test_binding_the_exception_is_clean(self):
        vs = lint(
            """\
            def resolve():
                try:
                    return compile()
                except Exception as exc:
                    record_fallback(str(exc))
                    return None
            """,
            "native/kernel.py",
            rule="exception-swallow",
        )
        assert vs == []

    def test_reraising_is_clean(self):
        vs = lint(
            """\
            def f(path):
                try:
                    build(path)
                except BaseException:
                    cleanup(path)
                    raise
            """,
            "native/kernel.py",
            rule="exception-swallow",
        )
        assert vs == []

    def test_narrow_handlers_are_clean(self):
        vs = lint(
            """\
            def f():
                try:
                    run()
                except OSError:
                    return None
            """,
            "serve/workers.py",
            rule="exception-swallow",
        )
        assert vs == []

    def test_silent_outside_native_and_serve(self):
        vs = lint(
            """\
            def f():
                try:
                    run()
                except Exception:
                    return None
            """,
            "core/equations.py",
            rule="exception-swallow",
        )
        assert vs == []

    def test_line_suppression(self):
        vs = lint(
            """\
            def probe():
                try:
                    import cffi
                except Exception:  # repro-lint: allow(exception-swallow) probe
                    return False
                return True
            """,
            "native/kernel.py",
            rule="exception-swallow",
        )
        assert vs == []


class TestEventTraceId:
    def test_emit_without_trace_id_fires(self):
        vs = lint(
            """\
            def admit(event_log, r):
                event_log.emit("admit", request=r.id)
            """,
            "serve/server.py",
            rule="event-trace-id",
        )
        assert len(vs) == 1
        assert "trace_id" in vs[0].message
        assert vs[0].code == "REPRO007"

    def test_emit_with_trace_id_passes(self):
        vs = lint(
            """\
            def admit(event_log, r):
                event_log.emit("admit", trace_id=r.trace_id, request=r.id)
            """,
            "serve/server.py",
            rule="event-trace-id",
        )
        assert vs == []

    def test_lazily_bound_alias_receivers_are_covered(self):
        vs = lint(
            """\
            def evict(_event_log, key):
                ev = _event_log()
                ev.emit("evict", key=key)
                _event_log().emit("evict", key=key)
            """,
            "runtime/plan_cache.py",
            rule="event-trace-id",
        )
        assert len(vs) == 2

    def test_unrelated_emit_receivers_are_ignored(self):
        vs = lint(
            """\
            def log(logger, signal):
                logger.emit("message")
                signal.emit()
            """,
            "serve/server.py",
            rule="event-trace-id",
        )
        assert vs == []

    def test_rule_applies_everywhere_not_just_serve(self):
        vs = lint(
            "def f(event_log):\n    event_log.emit(\"fallback\")\n",
            "native/__init__.py",
            rule="event-trace-id",
        )
        assert len(vs) == 1

    def test_line_suppression(self):
        vs = lint(
            """\
            def f(event_log):
                event_log.emit("boot")  # repro-lint: allow(event-trace-id) pre-request
            """,
            "serve/server.py",
            rule="event-trace-id",
        )
        assert vs == []


class TestWholeFileMemmap:
    def test_np_memmap_outside_stream_fires(self):
        vs = lint(
            "import numpy as np\nbuf = np.memmap('f.bin', mode='r+')\n",
            "core/outofcore.py",
            rule="whole-file-memmap",
        )
        assert len(vs) == 1
        assert vs[0].code == "REPRO008"

    def test_bare_memmap_import_fires(self):
        vs = lint(
            "from numpy import memmap\nbuf = memmap('f.bin')\n",
            "cli.py",
            rule="whole-file-memmap",
        )
        assert len(vs) == 1

    def test_stream_modules_are_exempt(self):
        vs = lint(
            "import numpy as np\nmm = np.memmap('f.bin', mode='r+')\n",
            "stream/window.py",
            rule="whole-file-memmap",
        )
        assert vs == []

    def test_line_suppression(self):
        vs = lint(
            "import numpy as np\n"
            "buf = np.memmap('f.bin')  "
            "# repro-lint: allow(whole-file-memmap) not yet streamed\n",
            "cli.py",
            rule="whole-file-memmap",
        )
        assert vs == []


class TestEagerIndexMap:
    def test_equation_matrix_builder_fires_in_executor(self):
        vs = lint(
            "from . import equations as eq\n"
            "maps = eq.dprime_inverse_matrix(dec)\n",
            "core/engine.py",
            rule="eager-index-map",
        )
        assert len(vs) == 1
        assert vs[0].code == "REPRO009"
        assert "dprime_inverse_matrix" in vs[0].message

    def test_reduced_builder_and_bare_names_fire(self):
        vs = lint(
            """\
            from ..core.equations import sprime_matrix


            def run(red, dec):
                a = red.sprime_matrix()
                b = sprime_matrix(dec)
                return a, b
            """,
            "parallel/cpu.py",
            rule="eager-index-map",
        )
        assert len(vs) == 2

    def test_every_executor_scope_is_covered(self):
        for rel in ("core/plan.py", "stream/executor.py", "serve/batcher.py",
                    "native/codegen.py"):
            vs = lint("m = eq.sprime_matrix(dec)\n", rel, rule="eager-index-map")
            assert len(vs) == 1, rel

    def test_kernels_and_analysis_keep_the_builders(self):
        for rel in ("core/c2r.py", "core/r2c.py", "core/steps.py",
                    "analysis/algebra.py"):
            vs = lint("m = eq.sprime_matrix(dec)\n", rel, rule="eager-index-map")
            assert vs == [], rel

    def test_chunk_index_evaluation_passes(self):
        vs = lint(
            "block = eq.sprime_v(dec, i, j)\nmat = np.asmatrix(block)\n",
            "core/engine.py",
            rule="eager-index-map",
        )
        assert vs == []

    def test_annotated_lazy_builder_is_exempt(self):
        vs = lint(
            """\
            def _gather_map(dec):  # repro-lint: allow(eager-index-map) lazy builder
                return eq.sprime_matrix(dec)
            """,
            "core/engine.py",
            rule="eager-index-map",
        )
        assert vs == []


class TestRealTree:
    def test_repro_package_is_lint_clean(self):
        assert run_lint() == []

    def test_unparseable_module_reports_instead_of_crashing(self):
        vs = lint("def broken(:\n", "core/plan.py")
        assert len(vs) == 1 and "unparseable" in vs[0].message
