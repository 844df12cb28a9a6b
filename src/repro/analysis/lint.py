"""AST-based custom lint pass enforcing repo invariants over ``src/repro``.

Nine rules, each born from a class of bug this codebase has actually hit
or explicitly defends against:

``raw-divmod`` (REPRO001)
    Designated hot-path modules must not use raw ``//`` or ``%`` — index
    division routes through :mod:`repro.strength` so the Section 4.4
    strength reduction stays load-bearing.  Setup-time uses are annotated.

``implicit-copy`` (REPRO002)
    In plan-execution modules, ``.ravel()`` is banned (it may silently copy
    a non-contiguous view) and ``.reshape(...)`` must appear in a function
    that also checks contiguity — the latent silently-copied-view bug class
    that PR 1's contiguity guards fixed.

``entry-guard`` (REPRO003)
    Each configured public entry point must contain an explicit contiguity
    guard (a ``C_CONTIGUOUS``/``F_CONTIGUOUS`` flags check).  A missing
    function is itself a violation, so the configuration cannot drift.

``lock-discipline`` (REPRO004)
    In ``runtime/`` modules, any method of a class owning ``self._lock``
    may mutate shared attributes only inside ``with self._lock:`` (mutation
    = attribute/subscript assignment, augmented assignment, or a mutating
    container-method call; ``__init__`` is exempt).

``trace-granularity`` (REPRO005)
    Span/metric recording calls (``.span``/``.event``/``.observe``/
    ``.inc``/``.record_call``) must not sit inside doubly-nested loops —
    one record per *pass* is the contract; per-element recording would
    swamp both the workload and the ring buffer.  Loop depth resets at
    nested ``def`` boundaries (a worker closure runs per chunk, not per
    iteration of the loop that spawned it).

``exception-swallow`` (REPRO006)
    In ``native/``, ``serve/`` and ``trace/`` modules, a broad handler
    (bare ``except``, ``except Exception``/``BaseException``) must either
    bind the exception (``as exc`` — so fallback/resolution paths can
    carry the failure reason into the ``native.fallback`` counter context
    or the error reply) or re-raise.  An unbound, non-re-raising broad
    handler silently drops the reason a kernel or worker fell over.

``event-trace-id`` (REPRO007)
    Every structured-event emission (``event_log.emit(...)``) must pass
    ``trace_id`` as a keyword so each event joins a request's distributed
    trace.  An emission without it produces an orphaned event that cannot
    be correlated with the spans of the request that caused it.

``whole-file-memmap`` (REPRO008)
    ``np.memmap(...)`` is banned outside ``stream/``: a raw whole-file
    mapping has an unbounded resident set — exactly the bug class the
    byte-budgeted :class:`repro.stream.window.ResidentWindow` exists to
    prevent.  File-backed matrices go through :mod:`repro.stream`;
    genuinely exempt uses (e.g. a not-yet-streamed subsystem) carry an
    explicit suppression with rationale.

``eager-index-map`` (REPRO009)
    In the executors (``core/plan.py``, ``core/engine.py``, ``parallel/``,
    ``stream/``, ``serve/``, ``native/``), calling a whole-matrix index
    builder (any ``*_matrix`` function of :mod:`repro.core.equations` or
    :class:`~repro.strength.reduced.ReducedEquations`) is banned: it
    allocates ``O(mn)`` index state, against the paper's ``O(max(m, n))``
    auxiliary-space bound.  Executors build each sub-band's index block
    from ``O(max(m, n))`` tables instead, and none carries a suppression.

Suppressions
------------
Append ``# repro-lint: allow(<rule>[, <rule>...])`` to the offending line,
or put it on the enclosing ``def`` line to suppress for a whole function.
Anything after the closing parenthesis is free-form rationale.  Every
suppression should say *why*.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "RULES",
    "LintViolation",
    "check_source",
    "check_file",
    "run_lint",
    "default_root",
]

#: rule name -> (code, summary)
RULES = {
    "raw-divmod": ("REPRO001", "raw // or % in a strength-reduced hot path"),
    "implicit-copy": ("REPRO002", "possible silent-copy reshape/ravel in an execution path"),
    "entry-guard": ("REPRO003", "public entry point lacks a contiguity guard"),
    "lock-discipline": ("REPRO004", "shared runtime state mutated outside its lock"),
    "trace-granularity": ("REPRO005", "span/metric recording inside a per-element inner loop"),
    "exception-swallow": ("REPRO006", "broad except drops the failure reason in a fallback path"),
    "event-trace-id": ("REPRO007", "structured event emitted without a trace_id keyword"),
    "whole-file-memmap": ("REPRO008", "unbounded np.memmap outside the streaming window"),
    "eager-index-map": ("REPRO009", "O(mn) whole-matrix index map built in an executor"),
}

#: Modules (relative to the package root) where raw ``//``/``%`` is banned.
HOT_DIVMOD_MODULES = {
    "strength/reduced.py",
    "parallel/cpu.py",
    "core/plan.py",
    "core/engine.py",
}

#: Modules whose functions execute plans (reshape/ravel scrutiny).
PLAN_EXECUTION_MODULES = {
    "core/plan.py",
    "core/engine.py",
    "core/batched.py",
    "parallel/cpu.py",
    "core/transpose.py",
}

#: (module, qualified function) pairs that must contain a contiguity guard.
ENTRY_POINT_GUARDS = [
    ("core/transpose.py", "transpose_inplace"),
    ("core/transpose.py", "transpose"),
    # one method serves TransposePlan and its BatchedTransposePlan alias
    ("core/engine.py", "TransposePlan.execute"),
    ("parallel/cpu.py", "ParallelTranspose.c2r"),
    ("parallel/cpu.py", "ParallelTranspose.r2c"),
]

#: Directory prefix where lock discipline is enforced.
LOCK_MODULE_PREFIX = "runtime/"

#: Directory prefixes where broad exception handlers must preserve the
#: failure reason (the native fallback/resolution, serving and tracing
#: paths).
EXCEPTION_SWALLOW_PREFIXES = ("native/", "serve/", "trace/")

#: Exception names considered "broad" for the exception-swallow rule.
_BROAD_EXCEPTIONS = {"Exception", "BaseException"}

#: Directory prefix exempt from the whole-file-memmap rule: the streaming
#: window is the one place allowed to hold the mapping, because it is the
#: component that bounds its residency.
MEMMAP_EXEMPT_PREFIX = "stream/"

#: Modules / directory prefixes where whole-matrix index builders are
#: banned (the executors); ``core/c2r.py``, ``core/r2c.py``,
#: ``core/steps.py`` and ``analysis/`` keep using them.
EAGER_INDEX_MAP_SCOPE = (
    "core/plan.py", "core/engine.py", "parallel/", "stream/", "serve/", "native/",
)

_CONTIGUITY_MARKERS = ("C_CONTIGUOUS", "F_CONTIGUOUS")
#: Recording calls whose receivers are tracers/registries; flagged when the
#: call sits at loop depth >= 2 (per-element granularity).
_RECORDING_METHODS = {"span", "event", "emit", "observe", "inc", "record_call"}
#: Receiver names treated as the structured event log for REPRO007
#: (``event_log.emit(...)`` and lazily-bound aliases).
_EVENT_LOG_NAMES = {"event_log", "ev", "_event_log"}
_MUTATING_METHODS = {
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "add", "discard", "setdefault", "move_to_end",
}
_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*allow\(([a-zA-Z0-9_,\s-]+)\)")


@dataclass(frozen=True)
class LintViolation:
    """One finding: where, which rule, and what went wrong."""

    path: str
    line: int
    rule: str
    message: str

    @property
    def code(self) -> str:
        return RULES[self.rule][0]

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "code": self.code,
            "message": self.message,
        }

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.code}({self.rule}) {self.message}"


def _suppressions(source: str) -> dict[int, set[str]]:
    """Map line number -> rule names suppressed on that line."""
    out: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if match:
                rules = {r.strip() for r in match.group(1).split(",") if r.strip()}
                out.setdefault(tok.start[0], set()).update(rules)
    except tokenize.TokenError:
        pass
    return out


class _Analyzer(ast.NodeVisitor):
    """Single-pass collector for all four rules over one module."""

    def __init__(self, rel: str, suppressed: dict[int, set[str]]):
        self.rel = rel
        self.suppressed = suppressed
        self.violations: list[LintViolation] = []
        #: stack of (FunctionDef node, set of contiguity markers seen)
        self._func_stack: list[ast.AST] = []
        self._class_stack: list[str] = []
        #: lock nesting depth (``with self._lock`` scopes)
        self._lock_depth = 0
        #: For/While nesting depth within the current function body
        self._loop_depth = 0
        #: name of the class currently known to own a ``self._lock``
        self._lock_classes: set[str] = set()
        self.rel_posix = rel.replace("\\", "/")
        self.in_hot_module = self.rel_posix in HOT_DIVMOD_MODULES
        self.in_exec_module = self.rel_posix in PLAN_EXECUTION_MODULES
        self.in_lock_module = self.rel_posix.startswith(LOCK_MODULE_PREFIX)
        self.in_swallow_module = self.rel_posix.startswith(
            EXCEPTION_SWALLOW_PREFIXES
        )
        self.in_executor_module = self.rel_posix.startswith(
            EAGER_INDEX_MAP_SCOPE
        )
        #: qualname -> FunctionDef for entry-guard lookups
        self.functions: dict[str, ast.AST] = {}

    # -- bookkeeping ---------------------------------------------------------

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 0)
        # A multi-line expression accepts the suppression on any of its lines.
        end = getattr(node, "end_lineno", None) or line
        lines = set(range(line, end + 1))
        for fn in self._func_stack:
            lines.add(fn.lineno)
        for ln in lines:
            if rule in self.suppressed.get(ln, ()):
                return
        self.violations.append(LintViolation(self.rel_posix, line, rule, message))

    def _qualname(self, name: str) -> str:
        return ".".join([*self._class_stack, name])

    # -- structure visitors ----------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        # Pre-scan __init__ for a self._lock assignment so methods defined
        # before/after are treated uniformly.
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                for sub in ast.walk(item):
                    if (
                        isinstance(sub, ast.Attribute)
                        and sub.attr == "_lock"
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"
                        and isinstance(sub.ctx, ast.Store)
                    ):
                        self._lock_classes.add(node.name)
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(self, node) -> None:
        self.functions[self._qualname(node.name)] = node
        self._func_stack.append(node)
        # A nested def runs on its own schedule (e.g. a worker closure runs
        # once per chunk), so loop depth does not carry across it.
        saved_depth = self._loop_depth
        self._loop_depth = 0
        self.generic_visit(node)
        self._loop_depth = saved_depth
        self._func_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _visit_loop(self, node) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    visit_For = _visit_loop
    visit_AsyncFor = _visit_loop
    visit_While = _visit_loop

    def visit_With(self, node: ast.With) -> None:
        is_lock = any(
            isinstance(item.context_expr, ast.Attribute)
            and item.context_expr.attr == "_lock"
            and isinstance(item.context_expr.value, ast.Name)
            and item.context_expr.value.id == "self"
            for item in node.items
        )
        if is_lock:
            self._lock_depth += 1
            self.generic_visit(node)
            self._lock_depth -= 1
        else:
            self.generic_visit(node)

    # -- rule: raw-divmod ------------------------------------------------------

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if self.in_hot_module and isinstance(node.op, (ast.FloorDiv, ast.Mod)):
            op = "//" if isinstance(node.op, ast.FloorDiv) else "%"
            self._emit(
                "raw-divmod", node,
                f"raw {op!r} in a hot-path module; route through repro.strength",
            )
        self.generic_visit(node)

    # -- rule: implicit-copy and lock-discipline (assignment side) -------------

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self.in_hot_module and isinstance(node.op, (ast.FloorDiv, ast.Mod)):
            self._emit("raw-divmod", node, "raw augmented //=/%= in a hot-path module")
        self._check_lock_mutation(node.target, node)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_lock_mutation(target, node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # whole-file-memmap: np.memmap (or a bare memmap import) anywhere
        # but stream/ maps a file with no residency bound.
        is_memmap = (
            isinstance(func, ast.Attribute) and func.attr == "memmap"
        ) or (isinstance(func, ast.Name) and func.id == "memmap")
        if is_memmap and not self.rel_posix.startswith(MEMMAP_EXEMPT_PREFIX):
            self._emit(
                "whole-file-memmap", node,
                "np.memmap outside stream/ has an unbounded resident set; "
                "route file-backed matrices through repro.stream",
            )
        # eager-index-map: a whole-matrix index builder in an executor
        # materializes O(mn) index state.
        callee = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else ""
        )
        if self.in_executor_module and callee.endswith("_matrix"):
            self._emit(
                "eager-index-map", node,
                f"{callee}() builds an O(mn) index map in an executor; "
                "build each sub-band's index block from O(max(m, n)) tables",
            )
        if isinstance(func, ast.Attribute):
            # trace-granularity: recording from a doubly-nested loop means
            # per-element (or per-tile-element) spans/metrics — the record
            # volume scales with the data, not with the pass count.
            if func.attr in _RECORDING_METHODS and self._loop_depth >= 2:
                self._emit(
                    "trace-granularity", node,
                    f".{func.attr}() at loop depth {self._loop_depth}; "
                    "record once per pass, not per element",
                )
            # event-trace-id: an event-log emission that omits trace_id=
            # produces an orphaned event no trace can claim.
            if func.attr == "emit" and self._is_event_log_receiver(func.value):
                if not any(kw.arg == "trace_id" for kw in node.keywords):
                    self._emit(
                        "event-trace-id", node,
                        ".emit() without trace_id=; stamp every structured "
                        "event with the active trace id "
                        "(tracer.current_trace_id() when idle)",
                    )
            if self.in_exec_module and func.attr == "ravel":
                self._emit(
                    "implicit-copy", node,
                    ".ravel() may silently copy a strided view; "
                    "guard contiguity and use .reshape(-1)",
                )
            if self.in_exec_module and func.attr == "reshape":
                if not self._enclosing_function_checks_contiguity():
                    self._emit(
                        "implicit-copy", node,
                        ".reshape() in a plan-execution function with no "
                        "contiguity guard (a strided view would be copied, "
                        "not permuted)",
                    )
            # lock-discipline: self._x.mutator(...) outside the lock
            if (
                func.attr in _MUTATING_METHODS
                and isinstance(func.value, ast.Attribute)
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id == "self"
            ):
                self._check_lock_mutation(func.value, node, is_call=True)
        self.generic_visit(node)

    # -- rule: event-trace-id ----------------------------------------------------

    @staticmethod
    def _is_event_log_receiver(expr: ast.AST) -> bool:
        """True for ``event_log`` / ``ev`` names and ``_event_log()`` calls."""
        if isinstance(expr, ast.Name):
            return expr.id in _EVENT_LOG_NAMES
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            return expr.func.id in _EVENT_LOG_NAMES
        if isinstance(expr, ast.Attribute):
            return expr.attr in _EVENT_LOG_NAMES
        return False

    # -- rule: exception-swallow -----------------------------------------------

    @staticmethod
    def _is_broad_handler(node: ast.ExceptHandler) -> bool:
        t = node.type
        if t is None:  # bare except
            return True
        if isinstance(t, ast.Name):
            return t.id in _BROAD_EXCEPTIONS
        if isinstance(t, ast.Tuple):
            return any(
                isinstance(el, ast.Name) and el.id in _BROAD_EXCEPTIONS
                for el in t.elts
            )
        return False

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if (
            self.in_swallow_module
            and self._is_broad_handler(node)
            and node.name is None
            and not any(isinstance(sub, ast.Raise) for sub in ast.walk(node))
        ):
            caught = "bare except" if node.type is None else "except Exception"
            self._emit(
                "exception-swallow", node,
                f"{caught} without 'as exc' or re-raise drops the failure "
                "reason; bind it and record why the fallback happened",
            )
        self.generic_visit(node)

    def _enclosing_function_checks_contiguity(self) -> bool:
        for fn in reversed(self._func_stack):
            for sub in ast.walk(fn):
                if isinstance(sub, ast.Constant) and sub.value in _CONTIGUITY_MARKERS:
                    return True
        return False

    # -- rule: lock-discipline -------------------------------------------------

    def _current_method_context(self) -> tuple[str, str] | None:
        """(class name, method name) when directly inside a method body."""
        if not self._class_stack or not self._func_stack:
            return None
        return self._class_stack[-1], self._func_stack[0].name

    def _check_lock_mutation(self, target: ast.AST, node: ast.AST, *, is_call=False) -> None:
        if not self.in_lock_module or self._lock_depth > 0:
            return
        ctx = self._current_method_context()
        if ctx is None:
            return
        cls, method = ctx
        if cls not in self._lock_classes or method == "__init__":
            return
        # Mutations of interest: self.<attr> (stores), self.<attr>[...] = ...,
        # and mutating container-method calls on self.<attr>.
        attr = None
        if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name) \
                and target.value.id == "self":
            attr = target.attr
        elif isinstance(target, ast.Subscript):
            inner = target.value
            if isinstance(inner, ast.Attribute) and isinstance(inner.value, ast.Name) \
                    and inner.value.id == "self":
                attr = inner.attr
        if attr is None or attr == "_lock":
            return
        kind = "mutating call on" if is_call else "assignment to"
        self._emit(
            "lock-discipline", node,
            f"{kind} self.{attr} in {cls}.{method} outside 'with self._lock'",
        )


def check_source(source: str, rel: str) -> list[LintViolation]:
    """Lint one module's source; ``rel`` is its path relative to the root."""
    rel_posix = rel.replace("\\", "/")
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            LintViolation(rel_posix, exc.lineno or 0, "entry-guard",
                          f"unparseable module: {exc.msg}")
        ]
    analyzer = _Analyzer(rel, _suppressions(source))
    analyzer.visit(tree)
    violations = analyzer.violations

    # entry-guard: configured entry points must exist and contain a guard.
    for module, qualname in ENTRY_POINT_GUARDS:
        if module != rel_posix:
            continue
        fn = analyzer.functions.get(qualname)
        if fn is None:
            violations.append(
                LintViolation(rel_posix, 1, "entry-guard",
                              f"configured entry point {qualname} not found "
                              "(update analysis.lint.ENTRY_POINT_GUARDS)")
            )
            continue
        has_guard = any(
            isinstance(sub, ast.Constant) and sub.value in _CONTIGUITY_MARKERS
            for sub in ast.walk(fn)
        )
        if not has_guard and "entry-guard" not in analyzer.suppressed.get(fn.lineno, ()):
            violations.append(
                LintViolation(rel_posix, fn.lineno, "entry-guard",
                              f"{qualname} has no contiguity guard")
            )
    return sorted(violations, key=lambda v: (v.path, v.line, v.rule))


def check_file(path: Path, root: Path) -> list[LintViolation]:
    rel = path.relative_to(root).as_posix()
    return check_source(path.read_text(encoding="utf-8"), rel)


def default_root() -> Path:
    """The installed ``repro`` package directory."""
    return Path(__file__).resolve().parents[1]


def run_lint(root: Path | None = None) -> list[LintViolation]:
    """Lint every module under ``root`` (default: the repro package)."""
    base = Path(root) if root is not None else default_root()
    violations: list[LintViolation] = []
    for path in sorted(base.rglob("*.py")):
        violations.extend(check_file(path, base))
    return violations
