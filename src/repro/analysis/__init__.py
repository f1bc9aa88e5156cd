"""Static analysis of the device contracts (``python -m repro lint``).

The paper's constraints are *contracts*: the Simplified/Reduced tiers are
libm-free, the deployed classifier is fixed-point int32 on a 2 KB-SRAM
MSP430, and every experiment must replay bit-for-bit.  The runtime
enforces them dynamically (``RestrictedMath`` raises when unlinked libm
is touched) -- but only on the paths a given run happens to execute.
This package proves them at source level, before anything runs:

* :mod:`~repro.analysis.device_rules` -- **DEV001** (the static libm
  gate, fed by the same :data:`repro.amulet.restricted.LIBM_OPERATIONS`
  table the runtime gate uses) and **DEV002** (float ban in fixed-point
  code paths);
* :mod:`~repro.analysis.determinism` -- **DET001** (no unseeded or
  time-seeded RNG anywhere in the package);
* :mod:`~repro.analysis.overflow` -- **OVF001** (interval analysis
  proving the quantized accumulator cannot hit int32 saturation);
* :mod:`~repro.analysis.c_checker` -- **CGEN001..004** over the C source
  :meth:`~repro.ml.model_codegen.FixedPointLinearModel.to_c_source`
  emits (no floats, no libm, MSP430-friendly identifier and storage
  widths);
* :mod:`~repro.analysis.concurrency` -- **ASYNC001** (no blocking calls
  reachable from coroutines, with receiver tracking through the module
  call graph) and **ASYNC002** (no dropped coroutines or unreferenced
  fire-and-forget tasks);
* :mod:`~repro.analysis.isolation` -- **PROC001** (only picklable,
  ownerless values cross the fork boundary), **SHM001** (every
  SharedMemory/tempfile create has cleanup on all exit paths) and
  **RACE001** (no cross-context writes to module state without a lock);
* :mod:`~repro.analysis.sanitizer` -- the runtime twin of ASYNC001: a
  :class:`~repro.analysis.sanitizer.LoopStallSanitizer` that times every
  asyncio callback and fails tests on event-loop stalls;
* :mod:`~repro.analysis.engine` / :mod:`~repro.analysis.rules` -- the
  pluggable framework: a ``Rule`` protocol, per-file ``Finding``
  diagnostics and ``# lint: allow`` pragmas (with a reason) as the one
  way to accept a finding.

``python -m repro lint`` runs the whole set and is wired into CI as a
gate; see ``docs/ARCHITECTURE.md`` for the workflow.
"""

from repro.analysis.c_checker import (
    LIBM_C_FUNCTIONS,
    MAX_IDENTIFIER_LENGTH,
    check_c_source,
)
from repro.analysis.concurrency import (
    AsyncBlockingCallRule,
    AsyncTaskLeakRule,
)
from repro.analysis.determinism import DeterminismRule
from repro.analysis.device_rules import (
    DEVICE_PACKAGES,
    NUMPY_TRANSCENDENTALS,
    ORIGINAL_TIER_FUNCTIONS,
    DeviceFloatBanRule,
    DeviceLibmRule,
)
from repro.analysis.engine import Analyzer, module_name_for_path
from repro.analysis.findings import Finding, Severity
from repro.analysis.isolation import (
    CrossContextRaceRule,
    ForkBoundaryRule,
    SharedResourceCleanupRule,
)
from repro.analysis.overflow import (
    FixedPointOverflowRule,
    OverflowReport,
    accumulator_interval,
    analyze_model,
    quantize_range,
)
from repro.analysis.rules import (
    LintContext,
    Rule,
    all_rules,
    register_rule,
    rules_for_codes,
)
from repro.analysis.sanitizer import (
    LoopStall,
    LoopStallError,
    LoopStallSanitizer,
)

__all__ = [
    "Analyzer",
    "AsyncBlockingCallRule",
    "AsyncTaskLeakRule",
    "CrossContextRaceRule",
    "DEVICE_PACKAGES",
    "DeterminismRule",
    "ForkBoundaryRule",
    "DeviceFloatBanRule",
    "DeviceLibmRule",
    "Finding",
    "FixedPointOverflowRule",
    "LIBM_C_FUNCTIONS",
    "LintContext",
    "LoopStall",
    "LoopStallError",
    "LoopStallSanitizer",
    "MAX_IDENTIFIER_LENGTH",
    "NUMPY_TRANSCENDENTALS",
    "ORIGINAL_TIER_FUNCTIONS",
    "OverflowReport",
    "Rule",
    "Severity",
    "SharedResourceCleanupRule",
    "accumulator_interval",
    "all_rules",
    "analyze_model",
    "check_c_source",
    "module_name_for_path",
    "quantize_range",
    "register_rule",
    "rules_for_codes",
]
