"""JSON-compatible text forms for measures, specs, and cylinder sets.

Rationals travel as "p/q" strings: `fraction_to_str` writes one, and
`fraction_from_str` reads it back exactly, as `measure_from_dict` and
`spec_from_dict` do for every mass.  Integers are accepted on input
wherever a rational is expected.  Parsing is strict: no JSON object may
repeat a key or carry a field the format does not define, integer fields
must be JSON integers (no floats, booleans or strings), support points
must be canonical decimal keys, and every malformed shape raises
`ValueError`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .measures import (
    CylinderSet,
    FiniteMeasureZ,
    PointMassTail,
    ProductMeasureSpec,
    TailPolicy,
    UniformTail,
)

__all__ = [
    "parse_json",
    "fraction_to_str",
    "fraction_from_str",
    "jsonify",
    "measure_from_dict",
    "spec_from_dict",
    "cylinder_from_dict",
]


def _unique_keys(pairs: list) -> dict:
    """The object of JSON (key, value) pairs; a repeated key raises."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


_STRICT_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)
_SCAN_ONCE = _STRICT_DECODER.scan_once
# The characters JSON allows around a value.
JSON_WHITESPACE = " \t\n\r"


def parse_json(text: str) -> Any:
    """`json.loads` for every JSON input, except that an object repeating a
    key raises `ValueError`.

    Syntax errors raise `json.JSONDecodeError` with the messages of
    `json.loads`; an integer literal longer than the interpreter's limit on
    integer digits raises a plain `ValueError`, as it does there.  Nesting
    deeper than the interpreter's recursion limit raises a `ValueError`
    carrying the decoder's `RecursionError` message.

    A text that starts with a value and ends with it, or with JSON
    whitespace after it, is one call of the decoder's scanner.  Any other
    text (leading whitespace, a BOM, no value, trailing data, too deep) goes
    through `JSONDecoder.decode`, which words each error as `json.loads`
    does.  A syntax error inside a value is raised by that same scanner call
    either way.
    """
    try:
        value, end = _SCAN_ONCE(text, 0)
    except (StopIteration, RecursionError):
        pass
    else:
        if end == len(text) or not text[end:].strip(JSON_WHITESPACE):
            return value
    # json.loads makes this test before it decodes; the decoder does not.
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError(
            "Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0
        )
    try:
        return _STRICT_DECODER.decode(text)
    except RecursionError as exc:
        raise ValueError(str(exc)) from None


def fraction_to_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def fraction_from_str(text) -> Fraction:
    """Parse "p/q" or a plain integer (string or int) into a Fraction.

    A string is an optional "-", ASCII digits, and optionally "/" and ASCII
    digits: what `fraction_to_str` writes, or a plain integer.  Decimals,
    exponents, spaces, "+" signs, underscores and other digits are not
    rationals here, so a short string never costs a huge denominator.
    """
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, str):
        parts = text.removeprefix("-").split("/")
        if len(parts) <= 2 and all(p.isascii() and p.isdigit() for p in parts):
            try:
                return Fraction(text)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"not a rational: {text!r}") from exc
    raise ValueError(f"not a rational: {text!r}")


# Types that jsonify returns as they are.  Testing `type(obj)` against them
# first skips `isinstance(obj, Fraction)`, which goes through the ABC
# machinery of the numeric tower and costs ten times as much.
_PLAIN = frozenset({int, str, bool, float, type(None)})


def jsonify(obj: Any) -> Any:
    """Recursively convert Fractions to "p/q" strings and tuples to lists."""
    cls = type(obj)
    if cls in _PLAIN:
        return obj
    if cls is list or cls is tuple:
        return [v if type(v) in _PLAIN else jsonify(v) for v in obj]
    if cls is dict:
        return {
            str(k): v if type(v) in _PLAIN else jsonify(v) for k, v in obj.items()
        }
    if isinstance(obj, Fraction):
        return fraction_to_str(obj)
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    return obj


def _no_unknown_fields(d: dict, fields: set) -> None:
    extra = sorted(set(d) - fields)
    if extra:
        raise ValueError(f"unknown fields: {', '.join(extra)}")


def _list(value, what: str):
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def _point_from_key(key) -> int:
    """A support point from a weights key; only canonical decimals like "-3"."""
    if isinstance(key, str):
        try:
            z = int(key)
        except ValueError:
            pass
        else:
            if str(z) == key:
                return z
    raise ValueError(f"support point must be a canonical integer, got {key!r}")


def measure_from_dict(d: dict) -> FiniteMeasureZ:
    if not isinstance(d, dict) or "weights" not in d:
        raise ValueError("measure object needs a 'weights' mapping")
    _no_unknown_fields(d, {"weights"})
    weights = d["weights"]
    if not isinstance(weights, dict):
        raise ValueError("'weights' must map integer points to rationals")
    return FiniteMeasureZ(
        {_point_from_key(z): fraction_from_str(w) for z, w in weights.items()}
    )


def _tail_from_dict(d) -> TailPolicy:
    if d is None:
        return None
    if not isinstance(d, dict) or "kind" not in d:
        raise ValueError(f"bad tail policy: {d!r}")
    kind = d["kind"]
    if kind not in ("uniform", "point"):
        raise ValueError(f"unknown tail kind: {kind!r}")
    key = "k" if kind == "uniform" else "z"
    if key not in d:
        raise ValueError(f'{kind} tail needs a "{key}" field')
    _no_unknown_fields(d, {"kind", key})
    return UniformTail(d["k"]) if kind == "uniform" else PointMassTail(d["z"])


def spec_from_dict(d: dict) -> ProductMeasureSpec:
    if not isinstance(d, dict) or "prefix" not in d:
        raise ValueError("spec object needs a 'prefix' list")
    _no_unknown_fields(d, {"prefix", "tail"})
    prefix = tuple(measure_from_dict(m) for m in _list(d["prefix"], "'prefix'"))
    return ProductMeasureSpec(prefix, _tail_from_dict(d.get("tail")))


def cylinder_from_dict(d: dict) -> CylinderSet:
    if not isinstance(d, dict) or "depth" not in d or "prefixes" not in d:
        raise ValueError("cylinder object needs 'depth' and 'prefixes'")
    _no_unknown_fields(d, {"depth", "prefixes"})
    prefixes = _list(d["prefixes"], "'prefixes'")
    return CylinderSet(d["depth"], tuple(tuple(_list(s, "prefix")) for s in prefixes))
