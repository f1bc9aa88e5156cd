"""CGEN rules over C source, plus the to_c_source round-trip contract."""

from pathlib import Path

import numpy as np
import pytest

import repro.native

from repro.amulet.restricted import LIBM_OPERATIONS
from repro.analysis.c_checker import (
    LIBM_C_FUNCTIONS,
    MAX_IDENTIFIER_LENGTH,
    check_c_source,
    tokenize_c,
)
from repro.core.versions import DetectorVersion
from repro.ml.model_codegen import FixedPointLinearModel


NATIVE_DIR = Path(repro.native.__file__).parent


def codes(findings):
    return [finding.code for finding in findings]


class TestTokenizer:
    def test_comments_and_strings_blanked(self):
        tokens = tokenize_c(
            '/* double sqrt */\n'
            '// float too\n'
            'const char *s = "double trouble";\n'
        )
        texts = [t.text for t in tokens]
        assert "double" not in texts
        assert "sqrt" not in texts
        assert "float" not in texts

    def test_block_comment_preserves_lines(self):
        tokens = tokenize_c("/* one\n * two\n */\nint x;\n")
        assert tokens[0].text == "int"
        assert tokens[0].line == 4

    def test_positions(self):
        tokens = tokenize_c("int32_t acc = 0;\n")
        acc = next(t for t in tokens if t.text == "acc")
        assert (acc.line, acc.col) == (1, 8)


class TestCgenRules:
    def test_cgen001_double(self):
        findings = check_c_source("double score(int x) { return x * 0.5; }\n")
        assert "CGEN001" in codes(findings)

    def test_cgen001_float(self):
        findings = check_c_source("static float gain = 1.0f;\n")
        assert codes(findings) == ["CGEN001"]

    def test_cgen002_libm_call(self):
        findings = check_c_source("int32_t r = (int32_t)sqrt(v);\n")
        assert codes(findings) == ["CGEN002"]

    def test_cgen002_float_variant(self):
        findings = check_c_source("y = atan2f(a, b);\n")
        assert codes(findings) == ["CGEN002"]

    def test_cgen002_requires_call(self):
        # A bare identifier that happens to collide is not a call.
        findings = check_c_source("int exp = 3;\n")
        assert findings == []

    def test_cgen003_long_identifier(self):
        name = "a" * (MAX_IDENTIFIER_LENGTH + 1)
        findings = check_c_source(f"int {name} = 0;\n")
        assert codes(findings) == ["CGEN003"]
        assert name in findings[0].message

    def test_cgen003_boundary_ok(self):
        name = "a" * MAX_IDENTIFIER_LENGTH
        findings = check_c_source(f"int {name} = 0;\n")
        assert findings == []

    def test_cgen004_int64_storage(self):
        findings = check_c_source("int64_t wide_accumulator = 0;\n")
        assert codes(findings) == ["CGEN004"]

    def test_cgen004_long_long_storage(self):
        findings = check_c_source("long long product;\n")
        assert codes(findings) == ["CGEN004"]

    def test_cgen004_cast_allowed(self):
        findings = check_c_source(
            "acc += (int32_t)(((int64_t)w[i] * x[i]) >> 14);\n"
        )
        assert findings == []

    def test_findings_carry_location(self):
        findings = check_c_source("int x;\ndouble y;\n", path="gen.c")
        assert len(findings) == 1
        assert findings[0].path == "gen.c"
        assert findings[0].line == 2

    def test_gate_table_is_the_seed(self):
        # The canonical runtime allowlist and its f-variants must all be
        # rejected by the C checker -- single source of truth.
        for name in LIBM_OPERATIONS:
            assert name in LIBM_C_FUNCTIONS
            assert name + "f" in LIBM_C_FUNCTIONS


class TestToCSourceRoundTrip:
    """Generated C must pass the checker for every detector version."""

    @pytest.mark.parametrize("version", list(DetectorVersion))
    def test_generated_c_is_contract_clean(self, version):
        rng = np.random.default_rng(7)
        n = version.n_features
        model = FixedPointLinearModel(
            weights_q=rng.integers(-(1 << 20), 1 << 20, size=n).astype(np.int64),
            bias_q=int(rng.integers(-(1 << 20), 1 << 20)),
            frac_bits=14,
        )
        source = model.to_c_source()
        assert check_c_source(source) == []

    @pytest.mark.parametrize("frac_bits", [4, 14, 30])
    def test_all_formats_clean(self, frac_bits):
        model = FixedPointLinearModel(
            weights_q=np.array([-3, 5, 7], dtype=np.int64),
            bias_q=-11,
            frac_bits=frac_bits,
        )
        assert check_c_source(model.to_c_source()) == []

    def test_custom_function_name_checked(self):
        model = FixedPointLinearModel(
            weights_q=np.array([1], dtype=np.int64), bias_q=0, frac_bits=8
        )
        bad_name = "sift_classify_with_an_extremely_long_name"
        assert len(bad_name) > MAX_IDENTIFIER_LENGTH
        findings = check_c_source(model.to_c_source(bad_name))
        assert codes(findings) == ["CGEN003"]


class TestNativeProfile:
    """The 'native' profile: the gateway-side hot path runs on the host
    in double precision, so CGEN001 bans only 'float' and CGEN002
    allowlists sqrt; the identifier and 64-bit-storage rules carry over."""

    def test_double_allowed(self):
        assert check_c_source("double x = 0.0;", profile="native") == []

    def test_float_still_banned(self):
        findings = check_c_source("float x = 0.0f;", profile="native")
        assert codes(findings) == ["CGEN001"]

    def test_sqrt_allowed(self):
        assert check_c_source(
            "double y = sqrt(x);", profile="native"
        ) == []

    def test_other_libm_still_banned(self):
        findings = check_c_source("double y = atan2(a, b);", profile="native")
        assert codes(findings) == ["CGEN002"]

    def test_identifier_rule_carries_over(self):
        name = "a_truly_excessively_long_identifier_name"
        assert len(name) > MAX_IDENTIFIER_LENGTH
        findings = check_c_source(f"int {name};", profile="native")
        assert codes(findings) == ["CGEN003"]

    def test_wide_storage_rule_carries_over(self):
        findings = check_c_source("int64_t acc = 0;", profile="native")
        assert codes(findings) == ["CGEN004"]

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="profile"):
            check_c_source("int x;", profile="msp432")

    @pytest.mark.parametrize(
        "version", list(DetectorVersion), ids=lambda v: v.value
    )
    def test_generated_hot_path_is_clean(self, version):
        """Every tier is scored by the one ``score.c`` kernel: it meets the
        native contract and defines the tier code the backend passes for
        this version (``smo.c`` is checked in
        ``tests/native/test_smo_parity.py``)."""
        from repro.native.backend import _TIER_CODES

        source = (NATIVE_DIR / "score.c").read_text()
        assert check_c_source(source, profile="native") == []
        define = f"#define SIFT_{version.name} {_TIER_CODES[version]}"
        assert define in source.splitlines()

    def test_hot_path_fails_device_profile(self):
        """Sanity: the native C is *not* device C -- the device profile
        must reject it (doubles everywhere), so the two contracts cannot
        be confused."""
        source = (NATIVE_DIR / "score.c").read_text()
        findings = check_c_source(source)
        assert "CGEN001" in codes(findings)
