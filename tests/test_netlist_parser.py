"""Tests for tolerant netlist text parsing (extra-content detection)."""

from typing import Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.netlist import (
    ExtraContentError,
    OtherSyntaxError,
    extract_json_object,
    parse_netlist_text,
)
from repro.bench import get_problem
from repro.bench.problems.fundamental import mzi_ps_golden


@pytest.fixture
def golden_json():
    return mzi_ps_golden().to_json()


class TestExtractJsonObject:
    def test_plain_object(self):
        assert extract_json_object('{"a": 1}') == '{"a": 1}'

    def test_object_with_prefix_and_suffix(self):
        assert extract_json_object('text before {"a": {"b": 2}} after') == '{"a": {"b": 2}}'

    def test_braces_inside_strings_ignored(self):
        text = '{"a": "value with } brace"}'
        assert extract_json_object(text) == text

    def test_escaped_quotes_inside_strings(self):
        text = '{"a": "quote \\" and } brace"}'
        assert extract_json_object(text) == text

    def test_unbalanced_returns_none(self):
        assert extract_json_object('{"a": 1') is None

    def test_no_object_returns_none(self):
        assert extract_json_object("no json here") is None


def _scan_per_character(text: str) -> Optional[str]:
    """The character-by-character brace scanner, kept as the oracle."""
    start = text.find("{")
    while start != -1:
        depth = 0
        in_string = False
        escaped = False
        for idx in range(start, len(text)):
            char = text[idx]
            if in_string:
                if escaped:
                    escaped = False
                elif char == "\\":
                    escaped = True
                elif char == '"':
                    in_string = False
                continue
            if char == '"':
                in_string = True
            elif char == "{":
                depth += 1
            elif char == "}":
                depth -= 1
                if depth == 0:
                    return text[start : idx + 1]
        start = text.find("{", start + 1)
    return None


#: Texts built mostly from the characters the scanner acts on, so escapes,
#: strings and braces interleave in every way.
_SCANNER_TEXTS = st.text(alphabet=st.sampled_from('{}"\\ab,:\n'), max_size=40)


class TestExtractJsonObjectOracle:
    @settings(max_examples=400, deadline=None)
    @given(_SCANNER_TEXTS)
    @example('{"a\\\\"}')
    @example('{"\\{"} }')
    @example('"{" {"x": "}"}')
    @example('{"a": 1} {')
    @example('{{"a": "\\')
    def test_matches_per_character_scanner(self, text):
        assert extract_json_object(text) == _scan_per_character(text)

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=60), st.text(max_size=30))
    def test_matches_on_wrapped_netlists(self, prefix, suffix):
        text = prefix + mzi_ps_golden().to_json() + suffix
        assert extract_json_object(text) == _scan_per_character(text)

    @pytest.mark.parametrize("problem", ["mzi_ps", "benes_8x8", "spanke_8x8"])
    def test_matches_on_drafts_of_every_wrapper(self, problem):
        golden = get_problem(problem).golden_netlist().to_json()
        texts = [
            "Here is the netlist:\n```json\n" + golden + "\n```\nDone.",
            golden[: golden.rfind("}")],
            golden + "{",
        ]
        for text in texts:
            assert extract_json_object(text) == _scan_per_character(text)


class TestParseNetlistText:
    def test_pure_json_passes_strict(self, golden_json):
        netlist = parse_netlist_text(golden_json, strict=True)
        assert "mmi1" in netlist.instances

    def test_markdown_fence_raises_extra_content(self, golden_json):
        wrapped = f"```json\n{golden_json}\n```"
        with pytest.raises(ExtraContentError):
            parse_netlist_text(wrapped, strict=True)

    def test_markdown_fence_recoverable_when_not_strict(self, golden_json):
        wrapped = f"Sure! Here you go:\n```json\n{golden_json}\n```\nHope this helps."
        netlist = parse_netlist_text(wrapped, strict=False)
        assert "mmi2" in netlist.instances

    def test_leading_prose_raises_extra_content(self, golden_json):
        with pytest.raises(ExtraContentError):
            parse_netlist_text("Here is the design:\n" + golden_json, strict=True)

    def test_empty_response(self):
        with pytest.raises(OtherSyntaxError, match="empty response"):
            parse_netlist_text("   ")

    def test_non_string_response(self):
        with pytest.raises(OtherSyntaxError):
            parse_netlist_text(None)  # type: ignore[arg-type]

    def test_no_json_at_all(self):
        with pytest.raises(OtherSyntaxError, match="no JSON object"):
            parse_netlist_text("I am unable to produce a netlist.")

    def test_truncated_json(self, golden_json):
        truncated = golden_json[: golden_json.rfind("}")]
        with pytest.raises(OtherSyntaxError):
            parse_netlist_text(truncated, strict=True)

    def test_whitespace_around_json_is_fine(self, golden_json):
        netlist = parse_netlist_text("\n\n  " + golden_json + "\n ", strict=True)
        assert netlist.num_instances() == 4

    def test_structurally_invalid_top_level(self):
        with pytest.raises(OtherSyntaxError):
            parse_netlist_text('{"instances": {}}', strict=True)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_standard_constants_are_syntax_errors(self, golden_json, token):
        drafted = golden_json.replace('"length": 10.0', f'"length": {token}', 1)
        assert drafted != golden_json
        with pytest.raises(OtherSyntaxError, match="non-standard constant"):
            parse_netlist_text(drafted, strict=True)

    def test_non_standard_constant_in_recovered_json(self, golden_json):
        drafted = golden_json.replace('"length": 20.0', '"length": NaN', 1)
        with pytest.raises(OtherSyntaxError, match="non-standard constant"):
            parse_netlist_text("```json\n" + drafted + "\n```", strict=False)
