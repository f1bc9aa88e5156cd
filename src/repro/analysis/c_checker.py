"""The C-codegen checker: contract lints over emitted MSP430 C source.

``FixedPointLinearModel.to_c_source`` emits the MLClassifier decision
function a developer pastes into the QM model.  Nothing used to look at
that artifact; this checker parses it (a comment/string-aware tokenizer
-- the subset of C the generator emits needs no more) and enforces the
Simplified/Reduced deployment contract:

* **CGEN001** -- no floating-point types (``double``/``float``): the
  MSP430 has no FPU and the fixed-point builds link no soft-float;
* **CGEN002** -- no libm calls (``sqrt``/``atan2``/``exp``/... and their
  ``f`` variants): the fixed-point builds do not link libm;
* **CGEN003** -- identifiers at most 31 significant characters, the
  portable-C width embedded toolchains guarantee;
* **CGEN004** -- no 64-bit *storage*: ``int64_t``/``long long`` may
  appear only as the cast in the multiply intermediate
  (``(int64_t)w * x``), never as a declared variable or array type --
  64-bit locals blow the 2 KB SRAM budget and every access becomes a
  multi-word software sequence.

Two profiles share the rule set.  The default ``"device"`` profile is
the MSP430 contract above.  The ``"native"`` profile covers the
gateway-side C kernels (``src/repro/native/score.c`` and ``smo.c``),
which run on the host in ``double`` precision: CGEN001 there bans only
``float`` (a ``float`` token would silently round the bit-parity
contract away) and CGEN002 allowlists ``sqrt`` (the one libm call the
float64 reference semantics require); CGEN003/CGEN004 apply unchanged.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from repro.amulet.restricted import LIBM_OPERATIONS
from repro.analysis.findings import Finding, Severity

__all__ = [
    "C_CHECK_PROFILES",
    "LIBM_C_FUNCTIONS",
    "MAX_IDENTIFIER_LENGTH",
    "CToken",
    "check_c_source",
    "tokenize_c",
]

#: Portable identifier significance limit (C89 external linkage is 6 on
#: paper, but 31 is what embedded toolchains -- and the Amulet's -- honour).
MAX_IDENTIFIER_LENGTH = 31

#: libm entry points the checker rejects.  Seeded from the canonical
#: :data:`repro.amulet.restricted.LIBM_OPERATIONS` gate table (plus the C
#: float variants and the rest of <math.h> the generator must never emit).
LIBM_C_FUNCTIONS: frozenset[str] = frozenset(
    {name for name in LIBM_OPERATIONS}
    | {name + "f" for name in LIBM_OPERATIONS}
    | {
        "pow",
        "powf",
        "sin",
        "sinf",
        "cos",
        "cosf",
        "tan",
        "tanf",
        "atan",
        "atanf",
        "asin",
        "acos",
        "log",
        "logf",
        "log2",
        "log10",
        "exp2",
        "expm1",
        "log1p",
        "fabs",
        "fabsf",
        "fmod",
        "fmodf",
        "hypot",
        "hypotf",
        "cbrt",
        "cbrtf",
        "ceil",
        "ceilf",
        "floor",
        "floorf",
        "round",
        "roundf",
    }
)

_FLOAT_TYPES: frozenset[str] = frozenset({"double", "float"})
_WIDE_TYPES: frozenset[str] = frozenset({"int64_t", "uint64_t"})

#: Per-profile rule parameters: which type tokens CGEN001 bans, which
#: libm calls CGEN002 tolerates, and how the messages justify themselves.
C_CHECK_PROFILES: dict[str, dict] = {
    "device": {
        "banned_float_types": _FLOAT_TYPES,
        "libm_allowed": frozenset(),
        "float_reason": (
            "the MSP430 fixed-point builds have no FPU and link no "
            "soft-float support"
        ),
        "libm_reason": (
            "the Simplified/Reduced builds do not link the C math library"
        ),
    },
    "native": {
        "banned_float_types": frozenset({"float"}),
        "libm_allowed": frozenset({"sqrt"}),
        "float_reason": (
            "the native hot path is double-precision end to end; a "
            "'float' would round away the bit-parity contract"
        ),
        "libm_reason": (
            "the native hot path may call only 'sqrt' from libm -- "
            "every other transcendental must reproduce NumPy bit-for-bit "
            "and goes through the vetted SVML entry points instead"
        ),
    },
}

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|0[xX][0-9a-fA-F]+|\d+\.?\d*|\S")


@dataclass(frozen=True)
class CToken:
    """One lexical token with its 1-based line and 0-based column."""

    text: str
    line: int
    col: int

    @property
    def is_identifier(self) -> bool:
        return bool(re.match(r"^[A-Za-z_]", self.text))


def _blank_comments_and_strings(source: str) -> str:
    """Replace comments and string/char literals with spaces, keeping layout."""
    out = list(source)
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "/" and i + 1 < n and source[i + 1] == "*":
            end = source.find("*/", i + 2)
            end = n if end == -1 else end + 2
            for j in range(i, end):
                if out[j] != "\n":
                    out[j] = " "
            i = end
        elif ch == "/" and i + 1 < n and source[i + 1] == "/":
            end = source.find("\n", i)
            end = n if end == -1 else end
            for j in range(i, end):
                out[j] = " "
            i = end
        elif ch in "\"'":
            quote = ch
            j = i + 1
            while j < n and source[j] != quote:
                j += 2 if source[j] == "\\" else 1
            end = min(j + 1, n)
            for k in range(i, end):
                if out[k] != "\n":
                    out[k] = " "
            i = end
        else:
            i += 1
    return "".join(out)


def tokenize_c(source: str) -> list[CToken]:
    """Tokenize C source with comments and literals already blanked."""
    blanked = _blank_comments_and_strings(source)
    tokens: list[CToken] = []
    for line_number, line in enumerate(blanked.splitlines(), start=1):
        for match in _TOKEN.finditer(line):
            tokens.append(CToken(match.group(), line_number, match.start()))
    return tokens


def check_c_source(
    source: str, path: str = "<generated>", profile: str = "device"
) -> list[Finding]:
    """Run every CGEN rule over one C translation unit.

    ``profile`` selects the deployment contract: ``"device"`` (the
    MSP430 rules, the default) or ``"native"`` (the gateway-side
    C hot path; see the module docstring).
    """
    if profile not in C_CHECK_PROFILES:
        raise ValueError(
            f"profile must be one of {sorted(C_CHECK_PROFILES)}, got {profile!r}"
        )
    tokens = tokenize_c(source)
    findings = list(_check_tokens(tokens, path, C_CHECK_PROFILES[profile]))
    findings.sort(key=lambda f: (f.line, f.col, f.code))
    return findings


def _finding(token: CToken, path: str, code: str, message: str) -> Finding:
    return Finding(
        path=path,
        line=token.line,
        col=token.col,
        code=code,
        message=message,
        severity=Severity.ERROR,
        source_line=token.text,
    )


def _check_tokens(
    tokens: list[CToken], path: str, profile: dict
) -> Iterator[Finding]:
    for index, token in enumerate(tokens):
        nxt = tokens[index + 1] if index + 1 < len(tokens) else None
        prev = tokens[index - 1] if index > 0 else None
        if token.text in profile["banned_float_types"]:
            yield _finding(
                token,
                path,
                "CGEN001",
                f"floating-point type '{token.text}' in generated C -- "
                + profile["float_reason"],
            )
        elif (
            token.is_identifier
            and token.text in LIBM_C_FUNCTIONS
            and token.text not in profile["libm_allowed"]
        ):
            if nxt is not None and nxt.text == "(":
                yield _finding(
                    token,
                    path,
                    "CGEN002",
                    f"libm call '{token.text}()' in generated C -- "
                    + profile["libm_reason"],
                )
        elif token.is_identifier and len(token.text) > MAX_IDENTIFIER_LENGTH:
            yield _finding(
                token,
                path,
                "CGEN003",
                f"identifier '{token.text}' is {len(token.text)} characters; "
                f"embedded toolchains guarantee only {MAX_IDENTIFIER_LENGTH} "
                "significant characters",
            )
        if token.text in _WIDE_TYPES or (
            token.text == "long" and nxt is not None and nxt.text == "long"
        ):
            if not _is_cast(tokens, index):
                yield _finding(
                    token,
                    path,
                    "CGEN004",
                    f"64-bit storage type '{token.text}' in generated C -- "
                    "only the (int64_t) multiply-intermediate cast is "
                    "allowed; 64-bit locals do not fit the 2 KB SRAM "
                    "budget",
                )
        elif token.text == "long" and prev is not None and prev.text == "long":
            continue  # second half of 'long long', already reported


def _is_cast(tokens: list[CToken], index: int) -> bool:
    """Whether the wide type at ``index`` is a ``(type)`` cast expression."""
    before = tokens[index - 1] if index > 0 else None
    token = tokens[index]
    after_index = index + 1
    if token.text == "long":  # possibly 'long long'
        while after_index < len(tokens) and tokens[after_index].text == "long":
            after_index += 1
    after = tokens[after_index] if after_index < len(tokens) else None
    return before is not None and before.text == "(" and after is not None and after.text == ")"
