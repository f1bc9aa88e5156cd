"""DET001: every random stream in the pipeline must be seeded.

The experiment pipeline's whole value is reproducibility -- Table II/III
cells and the fault-matrix are regression-tested bit-for-bit, and the
one-window/batch/chunked scoring paths are proven identical.  One unseeded
``np.random.default_rng()`` (or a call into the legacy global NumPy RNG,
or a time-derived seed) silently breaks all of that.  DET001 flags:

* ``np.random.default_rng()`` / ``Generator`` construction with no seed,
  an explicit ``None`` seed, or a seed derived from wall-clock time or
  OS entropy (``time.time``, ``datetime.now``, ``os.urandom``, ...);
* any call to the legacy global-state NumPy RNG (``np.random.rand``,
  ``np.random.seed``, ...), which is shared mutable state that parallel
  cohort workers would race on;
* module-level stdlib ``random`` calls and unseeded ``random.Random()``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules import LintContext, register_rule

__all__ = ["DeterminismRule", "LEGACY_NUMPY_RANDOM", "STDLIB_RANDOM_FUNCTIONS"]

#: Legacy numpy.random module-level functions (global hidden state).
LEGACY_NUMPY_RANDOM: frozenset[str] = frozenset(
    {
        "rand",
        "randn",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "randint",
        "random_integers",
        "choice",
        "shuffle",
        "permutation",
        "normal",
        "uniform",
        "standard_normal",
        "exponential",
        "poisson",
        "binomial",
        "beta",
        "gamma",
        "seed",
        "get_state",
        "set_state",
    }
)

#: Stdlib random module-level functions (global hidden state).
STDLIB_RANDOM_FUNCTIONS: frozenset[str] = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "uniform",
        "gauss",
        "normalvariate",
        "betavariate",
        "expovariate",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "seed",
        "getrandbits",
        "randbytes",
        "triangular",
    }
)

#: (module, attribute) pairs whose value is wall-clock/entropy derived.
_ENTROPY_SOURCES: frozenset[tuple[str, str]] = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("os", "urandom"),
        ("os", "getpid"),
        ("uuid", "uuid1"),
        ("uuid", "uuid4"),
    }
)


class _RandomImports:
    """Local names bound to numpy / numpy.random / random / entropy modules."""

    def __init__(self, tree: ast.Module) -> None:
        self.numpy: set[str] = set()
        self.numpy_random: set[str] = set()
        self.stdlib_random: set[str] = set()
        self.default_rng_names: set[str] = set()  # from numpy.random import default_rng
        self.random_class_names: set[str] = set()  # from random import Random
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    if alias.name == "numpy":
                        self.numpy.add(local)
                    elif alias.name == "numpy.random":
                        if alias.asname:
                            self.numpy_random.add(alias.asname)
                        else:
                            self.numpy.add("numpy")
                    elif alias.name == "random":
                        self.stdlib_random.add(local)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            self.numpy_random.add(alias.asname or alias.name)
                elif node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name == "default_rng":
                            self.default_rng_names.add(alias.asname or alias.name)
                elif node.module == "random":
                    for alias in node.names:
                        if alias.name == "Random":
                            self.random_class_names.add(alias.asname or alias.name)


@register_rule
class DeterminismRule:
    """DET001: no unseeded or time-seeded RNG, no global RNG state."""

    code = "DET001"
    description = (
        "random streams must be explicitly seeded: no bare "
        "np.random.default_rng(), no legacy np.random.* globals, no "
        "module-level stdlib random calls, no time-derived seeds"
    )

    def check(self, context: LintContext) -> Iterator[Finding]:
        imports = _RandomImports(context.tree)
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(context, imports, node)

    # ------------------------------------------------------------------

    def _check_call(
        self, context: LintContext, imports: _RandomImports, call: ast.Call
    ) -> Iterator[Finding]:
        func = call.func
        # np.random.<fn>(...) or npr.<fn>(...)
        receiver = self._numpy_random_receiver(imports, func)
        if receiver is not None:
            attr = receiver
            if attr in ("default_rng", "Generator", "SeedSequence"):
                yield from self._check_seeded_constructor(
                    context, call, f"np.random.{attr}"
                )
            elif attr in LEGACY_NUMPY_RANDOM:
                yield context.finding(
                    call,
                    self.code,
                    f"legacy global-state RNG call np.random.{attr}() -- use "
                    "an explicitly seeded np.random.default_rng(seed) "
                    "Generator threaded through the call tree",
                )
            return
        # default_rng(...) imported directly
        if isinstance(func, ast.Name) and func.id in imports.default_rng_names:
            yield from self._check_seeded_constructor(context, call, func.id)
            return
        # stdlib random.<fn>(...) and random.Random(...)
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id in imports.stdlib_random:
                if func.attr == "Random":
                    yield from self._check_seeded_constructor(
                        context, call, "random.Random"
                    )
                elif func.attr in STDLIB_RANDOM_FUNCTIONS:
                    yield context.finding(
                        call,
                        self.code,
                        f"module-level stdlib RNG call random.{func.attr}() -- "
                        "global hidden state; use a seeded "
                        "random.Random(seed) or numpy Generator",
                    )
            return
        if isinstance(func, ast.Name) and func.id in imports.random_class_names:
            yield from self._check_seeded_constructor(context, call, func.id)

    def _numpy_random_receiver(
        self, imports: _RandomImports, func: ast.expr
    ) -> str | None:
        """The trailing attr when func is <numpy>.random.<attr> or <npr>.<attr>."""
        if not isinstance(func, ast.Attribute):
            return None
        value = func.value
        if (
            isinstance(value, ast.Attribute)
            and value.attr == "random"
            and isinstance(value.value, ast.Name)
            and value.value.id in imports.numpy
        ):
            return func.attr
        if isinstance(value, ast.Name) and value.id in imports.numpy_random:
            return func.attr
        return None

    def _check_seeded_constructor(
        self, context: LintContext, call: ast.Call, display: str
    ) -> Iterator[Finding]:
        seed_args = list(call.args) + [kw.value for kw in call.keywords]
        if not seed_args:
            yield context.finding(
                call,
                self.code,
                f"unseeded {display}() -- every random stream must take an "
                "explicit seed so experiments replay bit-for-bit",
            )
            return
        first = seed_args[0]
        if isinstance(first, ast.Constant) and first.value is None:
            yield context.finding(
                call,
                self.code,
                f"{display}(None) draws OS entropy -- pass a concrete seed",
            )
            return
        entropy = self._entropy_source(first)
        if entropy is not None:
            yield context.finding(
                call,
                self.code,
                f"{display}() seeded from {entropy} -- wall-clock/entropy "
                "seeds make runs unreproducible; derive the seed from "
                "experiment configuration instead",
            )

    def _entropy_source(self, expression: ast.expr) -> str | None:
        for node in ast.walk(expression):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                pair = (node.value.id, node.attr)
                if pair in _ENTROPY_SOURCES:
                    return f"{pair[0]}.{pair[1]}"
            if isinstance(node, ast.Name) and node.id in ("urandom", "time_ns"):
                return node.id
        return None
