"""Process-isolation contracts: the fork/pickle boundary (PROC001),
shared-resource cleanup (SHM001) and cross-context races (RACE001).

The supervised scoring child and the cohort runner's
``ProcessPoolExecutor`` cross a process boundary, and so does any
shared-memory segment; each crossing has an invariant the type system
cannot see:

* **PROC001** -- everything submitted to another process is pickled.
  Lambdas and closures (functions defined inside the submitting
  function) fail at submit time with an opaque ``PicklingError``;
  locks, open file handles and ``SharedMemory`` objects are worse --
  some pickle *incorrectly* (a lock arrives unlocked and unrelated to
  the original).  The rule flags those argument categories at the
  submit site (``.submit`` / ``.apply_async`` / ``Process(target=...,
  args=...)``), where the fix is obvious: pass module-level functions
  and plain data, resolve handles child-side (a shared-memory segment
  is attached by *name* for exactly this reason).
* **SHM001** -- a ``SharedMemory(create=True)`` segment outlives its
  creator unless unlinked; a ``mkstemp``/``delete=False`` tempfile
  outlives the run unless removed.  Every create must carry cleanup
  evidence *in the same function or class*: a ``try/finally`` or an
  except-and-reraise that closes/unlinks (directly or through a helper
  whose body does), a ``weakref.finalize`` registration, or an
  ``atexit`` hook.  This is the leak-proofness PR 5 promised, as a
  lint.
* **RACE001** -- module-level mutable state written both from event-loop
  context (inside an ``async def``) and from worker context (a thread
  target, a child entry point) without holding a visible
  ``threading.Lock`` is a data race today or after the next refactor.
  A documented single-writer design is pragma'd where the state lives:
  ``# lint: allow RACE001 -- single writer: <who>``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules import LintContext, register_rule

__all__ = [
    "ForkBoundaryRule",
    "SharedResourceCleanupRule",
    "CrossContextRaceRule",
]

#: Attribute-call names that ship work to another process.
_SUBMIT_METHODS: frozenset[str] = frozenset({"submit", "apply_async"})

#: Constructor names for lock-like objects (unpicklable-by-meaning).
_LOCK_CONSTRUCTORS: frozenset[str] = frozenset(
    {"Lock", "RLock", "Semaphore", "BoundedSemaphore", "Condition", "Event"}
)

#: Method names that count as releasing a shared resource.
_CLEANUP_METHODS: frozenset[str] = frozenset(
    {"close", "unlink", "remove", "cleanup", "release"}
)

#: Mutable-container constructors for RACE001's module-state table.
_MUTABLE_CONSTRUCTORS: frozenset[str] = frozenset(
    {"dict", "list", "set", "deque", "defaultdict", "Counter", "OrderedDict"}
)

#: Mutating method names on a container.
_MUTATING_METHODS: frozenset[str] = frozenset(
    {
        "append",
        "add",
        "update",
        "setdefault",
        "pop",
        "popleft",
        "popitem",
        "clear",
        "extend",
        "insert",
        "remove",
        "discard",
        "appendleft",
    }
)


def _call_name(call: ast.Call) -> str | None:
    """The rightmost name of the call target (``a.b.c()`` -> ``c``)."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_shared_memory_create(call: ast.Call) -> bool:
    if _call_name(call) != "SharedMemory":
        return False
    for keyword in call.keywords:
        if keyword.arg == "create" and isinstance(keyword.value, ast.Constant):
            return bool(keyword.value.value)
    return False


def _is_orphan_tempfile_create(call: ast.Call) -> tuple[bool, str]:
    """(creates-an-unmanaged-file, what) for mkstemp/NamedTemporaryFile."""
    name = _call_name(call)
    if name == "mkstemp":
        return True, "tempfile.mkstemp()"
    if name == "NamedTemporaryFile":
        for keyword in call.keywords:
            if (
                keyword.arg == "delete"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is False
            ):
                return True, "NamedTemporaryFile(delete=False)"
    return False, ""


@register_rule
class ForkBoundaryRule:
    """PROC001: only picklable, ownerless values cross the fork boundary."""

    code = "PROC001"
    description = (
        "arguments shipped to another process (.submit/.apply_async/"
        "Process(target=..., args=...)) must not be lambdas, closures, "
        "locks, open file handles or SharedMemory objects -- pass "
        "module-level callables and plain data, attach handles child-side"
    )

    def check(self, context: LintContext) -> Iterator[Finding]:
        for scope in self._scopes(context.tree):
            nested = {
                node.name
                for node in ast.walk(scope)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node is not scope
            }
            unpicklable = self._unpicklable_bindings(scope)
            for call in (
                node for node in ast.walk(scope) if isinstance(node, ast.Call)
            ):
                yield from self._check_submit(context, call, nested, unpicklable)

    @staticmethod
    def _scopes(tree: ast.Module) -> Iterator[ast.AST]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    @staticmethod
    def _unpicklable_bindings(scope: ast.AST) -> dict[str, str]:
        """Names bound in this scope to values that must not be pickled."""
        bindings: dict[str, str] = {}
        for node in ast.walk(scope):
            if not isinstance(node, ast.Assign) or not isinstance(
                node.value, ast.Call
            ):
                continue
            name = _call_name(node.value)
            what: str | None = None
            if name in _LOCK_CONSTRUCTORS:
                what = f"a threading/multiprocessing {name}"
            elif name == "open":
                what = "an open file handle"
            elif name == "SharedMemory":
                what = "a SharedMemory handle (attach by name child-side)"
            if what is None:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bindings[target.id] = what
        return bindings

    def _check_submit(
        self,
        context: LintContext,
        call: ast.Call,
        nested: set[str],
        unpicklable: dict[str, str],
    ) -> Iterator[Finding]:
        shipped = self._shipped_arguments(call)
        if shipped is None:
            return
        for argument in shipped:
            if isinstance(argument, ast.Lambda):
                yield context.finding(
                    argument,
                    self.code,
                    "lambda crosses the fork boundary -- lambdas cannot be "
                    "pickled; use a module-level function",
                )
            elif isinstance(argument, ast.Name):
                if argument.id in nested:
                    yield context.finding(
                        argument,
                        self.code,
                        f"closure {argument.id}() crosses the fork boundary "
                        "-- functions defined inside a function cannot be "
                        "pickled; hoist it to module level",
                    )
                elif argument.id in unpicklable:
                    yield context.finding(
                        argument,
                        self.code,
                        f"{unpicklable[argument.id]} crosses the fork "
                        "boundary -- it does not pickle meaningfully",
                    )

    @staticmethod
    def _shipped_arguments(call: ast.Call) -> list[ast.expr] | None:
        """The expressions pickled by this call, or ``None`` if it is not
        a process-boundary call site."""
        name = _call_name(call)
        if name in _SUBMIT_METHODS and isinstance(call.func, ast.Attribute):
            shipped = list(call.args)
            for keyword in call.keywords:
                if keyword.arg is not None:
                    shipped.append(keyword.value)
            return shipped
        if name == "Process":
            shipped = []
            for keyword in call.keywords:
                if keyword.arg == "target":
                    shipped.append(keyword.value)
                elif keyword.arg in ("args", "kwargs") and isinstance(
                    keyword.value, (ast.Tuple, ast.List)
                ):
                    shipped.extend(keyword.value.elts)
            return shipped
        return None


@register_rule
class SharedResourceCleanupRule:
    """SHM001: every segment/file create has cleanup on all exit paths."""

    code = "SHM001"
    description = (
        "SharedMemory(create=True), mkstemp and delete=False tempfile "
        "creates must carry cleanup evidence in the same function or "
        "class: try/finally or except+reraise that closes/unlinks, a "
        "weakref.finalize registration, or an atexit hook"
    )

    def check(self, context: LintContext) -> Iterator[Finding]:
        helpers = self._cleanup_helpers(context.tree)
        for scope, owner in self._scopes_with_owner(context.tree):
            for node in ast.walk(scope):
                if not isinstance(node, ast.Call):
                    continue
                what = None
                if _is_shared_memory_create(node):
                    what = "SharedMemory(create=True)"
                else:
                    is_temp, temp_what = _is_orphan_tempfile_create(node)
                    if is_temp:
                        what = temp_what
                if what is None:
                    continue
                if self._has_cleanup_evidence(scope, owner, helpers):
                    continue
                yield context.finding(
                    node,
                    self.code,
                    f"{what} without cleanup on all exit paths -- the "
                    "segment/file outlives this process unless a "
                    "try/finally, except+reraise, weakref.finalize or "
                    "atexit hook closes and unlinks it",
                )

    @staticmethod
    def _scopes_with_owner(
        tree: ast.Module,
    ) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, ast.ClassDef | None]]:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node, None
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield item, node

    @staticmethod
    def _cleanup_helpers(tree: ast.Module) -> set[str]:
        """Module functions whose body visibly releases a resource."""
        helpers: set[str] = set()
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            for call in (n for n in ast.walk(node) if isinstance(n, ast.Call)):
                if _call_name(call) in _CLEANUP_METHODS:
                    helpers.add(node.name)
                    break
        return helpers

    def _has_cleanup_evidence(
        self,
        scope: ast.FunctionDef | ast.AsyncFunctionDef,
        owner: ast.ClassDef | None,
        helpers: set[str],
    ) -> bool:
        if self._scope_has_local_evidence(scope, helpers):
            return True
        if owner is not None:
            # The handle escapes into the instance; a close/__del__/
            # cleanup method (or a finalize registration anywhere in the
            # class) is the class-level exit path.
            for item in owner.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item is scope:
                    continue
                if item.name in ("close", "__del__", "__exit__", "cleanup", "stop"):
                    if self._calls_cleanup(item, helpers):
                        return True
                if self._registers_finalizer(item):
                    return True
            if self._registers_finalizer(scope):
                return True
        return False

    def _scope_has_local_evidence(
        self, scope: ast.AST, helpers: set[str]
    ) -> bool:
        if self._registers_finalizer(scope):
            return True
        for node in ast.walk(scope):
            if not isinstance(node, ast.Try):
                continue
            if node.finalbody and self._region_calls_cleanup(
                node.finalbody, helpers
            ):
                return True
            for handler in node.handlers:
                has_reraise = any(
                    isinstance(n, ast.Raise) for n in ast.walk(handler)
                )
                if has_reraise and self._region_calls_cleanup(
                    handler.body, helpers
                ):
                    return True
        return False

    @staticmethod
    def _registers_finalizer(scope: ast.AST) -> bool:
        for call in (n for n in ast.walk(scope) if isinstance(n, ast.Call)):
            name = _call_name(call)
            if name == "finalize":
                return True
            if name == "register" and isinstance(call.func, ast.Attribute):
                receiver = call.func.value
                if isinstance(receiver, ast.Name) and receiver.id == "atexit":
                    return True
        return False

    def _calls_cleanup(self, scope: ast.AST, helpers: set[str]) -> bool:
        return self._region_calls_cleanup(
            [n for n in ast.walk(scope) if isinstance(n, ast.stmt)], helpers
        )

    @staticmethod
    def _region_calls_cleanup(
        statements: list[ast.stmt], helpers: set[str]
    ) -> bool:
        for statement in statements:
            for call in (
                n for n in ast.walk(statement) if isinstance(n, ast.Call)
            ):
                name = _call_name(call)
                if name in _CLEANUP_METHODS or name in helpers:
                    return True
        return False


@register_rule
class CrossContextRaceRule:
    """RACE001: module state shared across execution contexts needs a lock."""

    code = "RACE001"
    description = (
        "module-level mutable state written from both event-loop context "
        "(async def) and worker context (thread target / child entry "
        "point) must be mutated under a threading.Lock, or carry a "
        "single-writer pragma where the state is defined"
    )

    def check(self, context: LintContext) -> Iterator[Finding]:
        if "async" not in context.source:
            return
        state = {
            name
            for name, line in self._module_state(context.tree).items()
            # A single-writer pragma where the state is *defined* blesses
            # every write site at once -- the design decision lives in
            # one place, not sprinkled over each mutation.
            if not context.is_suppressed(line, self.code)
        }
        if not state:
            return
        locks = self._module_locks(context.tree)
        worker_functions = self._worker_functions(context.tree)
        writes: dict[str, dict[str, list[ast.AST]]] = {}
        for function, is_async in self._functions_with_context(context.tree):
            if is_async:
                kind = "async"
            elif function.name in worker_functions:
                kind = "worker"
            else:
                continue
            for name, node in self._unlocked_writes(function, state, locks):
                writes.setdefault(name, {}).setdefault(kind, []).append(node)
        for name, by_kind in sorted(writes.items()):
            if "async" not in by_kind or "worker" not in by_kind:
                continue
            for node in by_kind["async"] + by_kind["worker"]:
                yield context.finding(
                    node,
                    self.code,
                    f"module-level mutable {name!r} is written from both "
                    "event-loop and worker context without a lock -- hold "
                    "a threading.Lock around every write, or document the "
                    "single-writer design with a pragma at the definition",
                )

    @staticmethod
    def _module_state(tree: ast.Module) -> dict[str, int]:
        """Module-level mutable bindings, name -> definition line."""
        state: dict[str, int] = {}
        for node in tree.body:
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            is_mutable = isinstance(value, (ast.Dict, ast.List, ast.Set)) or (
                isinstance(value, ast.Call)
                and _call_name(value) in _MUTABLE_CONSTRUCTORS
            )
            if not is_mutable:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    state[target.id] = node.lineno
        return state

    @staticmethod
    def _module_locks(tree: ast.Module) -> set[str]:
        locks: set[str] = set()
        for node in tree.body:
            if not isinstance(node, ast.Assign) or not isinstance(
                node.value, ast.Call
            ):
                continue
            if _call_name(node.value) in ("Lock", "RLock"):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        locks.add(target.id)
        return locks

    @staticmethod
    def _worker_functions(tree: ast.Module) -> set[str]:
        """Functions that execute off the event loop: thread/process
        targets and child entry points (``*_child_main`` by convention)."""
        workers: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name.endswith(
                "_child_main"
            ):
                workers.add(node.name)
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            takes_target = name in ("Thread", "Process") or name in _SUBMIT_METHODS
            if not takes_target:
                continue
            candidates: list[ast.expr] = []
            if name in _SUBMIT_METHODS and node.args:
                candidates.append(node.args[0])
            for keyword in node.keywords:
                if keyword.arg == "target":
                    candidates.append(keyword.value)
            for candidate in candidates:
                if isinstance(candidate, ast.Name):
                    workers.add(candidate.id)
        return workers

    @staticmethod
    def _functions_with_context(
        tree: ast.Module,
    ) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, bool]]:
        for node in ast.walk(tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield node, True
            elif isinstance(node, ast.FunctionDef):
                yield node, False

    def _unlocked_writes(
        self,
        function: ast.FunctionDef | ast.AsyncFunctionDef,
        state: set[str],
        locks: set[str],
    ) -> Iterator[tuple[str, ast.AST]]:
        locked_spans: list[tuple[int, int]] = []
        for node in ast.walk(function):
            if isinstance(node, ast.With):
                for item in node.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Name) and expr.id in locks:
                        end = getattr(node, "end_lineno", node.lineno)
                        locked_spans.append((node.lineno, end))
        def is_locked(node: ast.AST) -> bool:
            line = getattr(node, "lineno", 0)
            return any(start <= line <= end for start, end in locked_spans)

        for node in ast.walk(function):
            target_name: str | None = None
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Name
                    ):
                        if target.value.id in state:
                            target_name = target.value.id
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                receiver = node.func.value
                if (
                    isinstance(receiver, ast.Name)
                    and receiver.id in state
                    and node.func.attr in _MUTATING_METHODS
                ):
                    target_name = receiver.id
            if target_name is not None and not is_locked(node):
                yield target_name, node
