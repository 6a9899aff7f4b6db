"""Tolerant netlist parsing from raw LLM responses.

The evaluation pipeline receives free-form text from the model.  The paper's
restrictions require the result to contain *only* the JSON netlist ("Extra
contents found in JSON" is one of the Table II failure types), so the parser:

1. tries to parse the text directly as JSON;
2. if that fails but a JSON object can be located inside the text (markdown
   code fences, leading prose, trailing comments, ...), raises
   :class:`ExtraContentError` -- the content is recoverable, but the response
   violates the output-format restriction;
3. if no JSON object can be recovered at all, raises
   :class:`OtherSyntaxError`.

``parse_netlist_text(..., strict=False)`` performs the best-effort extraction
without raising for extra content, which is useful for diagnostics.
"""

from __future__ import annotations

import json
import re
from typing import Any, Optional, Tuple

from .errors import ExtraContentError, OtherSyntaxError
from .schema import Netlist

__all__ = ["parse_netlist_text", "extract_json_object", "parse_netlist_dict"]

_CODE_FENCE_RE = re.compile(r"```(?:json)?\s*(.*?)```", re.DOTALL)


def _reject_constant(token: str) -> Any:
    """``parse_constant`` hook: ``NaN``/``Infinity`` are not standard JSON."""
    raise OtherSyntaxError(f"invalid JSON: non-standard constant {token}")


#: Strict decoder shared by both parse paths: Python's ``json`` otherwise
#: accepts ``NaN``, ``Infinity`` and ``-Infinity`` as numbers.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def extract_json_object(text: str) -> Optional[str]:
    """Locate the first balanced top-level JSON object inside ``text``.

    Returns the candidate substring, or ``None`` when no balanced object is
    found.  Brace counting ignores braces inside JSON strings.
    """
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


def _load_json(candidate: str) -> Any:
    try:
        return _DECODER.decode(candidate)
    except json.JSONDecodeError as exc:
        raise OtherSyntaxError(f"invalid JSON: {exc}") from exc


def parse_netlist_dict(obj: Any) -> Netlist:
    """Convert an already-parsed JSON value into a :class:`Netlist`."""
    return Netlist.from_dict(obj)


def parse_netlist_text(text: str, *, strict: bool = True) -> Netlist:
    """Parse raw response text into a :class:`Netlist`.

    Parameters
    ----------
    text:
        The raw text of the ``<result>`` section of an LLM response (or any
        string expected to contain a netlist).
    strict:
        When true (the default, matching the benchmark's evaluation), any
        content besides the pure JSON object raises
        :class:`ExtraContentError`.  When false the JSON object is extracted
        silently when possible.

    Raises
    ------
    OtherSyntaxError
        When no parseable JSON netlist can be recovered at all.
    ExtraContentError
        When a netlist is recoverable but the text contains extra content
        (markdown fences, prose, comments) and ``strict`` is true.
    """
    if not isinstance(text, str) or not text.strip():
        raise OtherSyntaxError("empty response: no JSON netlist found")

    stripped = text.strip()

    # Fast path: the whole response is exactly one JSON object.
    if stripped.startswith("{") and stripped.endswith("}"):
        try:
            return parse_netlist_dict(_DECODER.decode(stripped))
        except json.JSONDecodeError:
            pass  # fall through to extraction / better error below

    # Look inside markdown code fences first, then anywhere in the text.
    candidate: Optional[str] = None
    fence_match = _CODE_FENCE_RE.search(stripped)
    if fence_match:
        candidate = extract_json_object(fence_match.group(1))
    if candidate is None:
        candidate = extract_json_object(stripped)
    if candidate is None:
        raise OtherSyntaxError(
            "no JSON object found in the response; the result section must contain "
            "exactly one JSON netlist"
        )

    netlist = parse_netlist_dict(_load_json(candidate))

    if strict and candidate.strip() != stripped:
        raise ExtraContentError(
            "the response contains content besides the JSON netlist "
            "(code fences, prose or comments); only the JSON netlist is allowed"
        )
    return netlist
