"""Dataset row schema shared by the region mapper, theorem witnesses, and CLI.

One SampleRecord is one row. CSV columns appear in exactly this order:

    w_re, w_im, sigma1_re, sigma1_im, sigma2_re, sigma2_im,
    path, classification, reachable, bounds_ok

JSONL uses the same field names, one object per line. Floats are rendered
with 17 significant digits so parsing reproduces them exactly; rows whose
ratios were skipped leave the sigma cells empty (null in JSONL). to_json is
the one JSON encoder of the package: dataset rows and every CLI output line
go through it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

__all__ = ["SampleRecord", "CSV_COLUMNS", "csv_row", "jsonl_line", "fmt_float"]

CSV_COLUMNS = (
    "w_re",
    "w_im",
    "sigma1_re",
    "sigma1_im",
    "sigma2_re",
    "sigma2_im",
    "path",
    "classification",
    "reachable",
    "bounds_ok",
)


@dataclass(frozen=True)
class SampleRecord:
    w: complex
    sigma1: Optional[complex]
    sigma2: Optional[complex]
    path: str
    classification: str
    reachable: bool
    bounds_ok: Optional[bool]


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def fmt_float(x: float) -> str:
    s = format(float(x), ".17g")
    return _NON_FINITE.get(s, s)


def _bool(x: Optional[bool]) -> str:
    if x is None:
        return ""
    return "true" if x else "false"


def csv_row(rec: SampleRecord) -> list[str]:
    s1 = rec.sigma1
    s2 = rec.sigma2
    return [
        fmt_float(rec.w.real),
        fmt_float(rec.w.imag),
        fmt_float(s1.real) if s1 is not None else "",
        fmt_float(s1.imag) if s1 is not None else "",
        fmt_float(s2.real) if s2 is not None else "",
        fmt_float(s2.imag) if s2 is not None else "",
        rec.path,
        rec.classification,
        _bool(rec.reachable),
        _bool(rec.bounds_ok),
    ]


_quote = json.encoder.encode_basestring_ascii


def to_json(x) -> str:
    """x as JSON: dicts and lists recursively, complex as {"re": .., "im": ..},
    floats via fmt_float, strings, booleans and None as json.dumps writes
    them, anything else (ints) via json.dumps."""
    if isinstance(x, float):
        return fmt_float(x)
    if isinstance(x, str):
        return _quote(x)
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, complex):
        return '{"re": ' + fmt_float(x.real) + ', "im": ' + fmt_float(x.imag) + "}"
    if isinstance(x, dict):
        return "{" + ", ".join([_quote(k) + ": " + to_json(v) for k, v in x.items()]) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join([to_json(v) for v in x]) + "]"
    return json.dumps(x)


def jsonl_line(rec: SampleRecord) -> str:
    s1 = rec.sigma1
    s2 = rec.sigma2
    values = (
        rec.w.real,
        rec.w.imag,
        s1.real if s1 is not None else None,
        s1.imag if s1 is not None else None,
        s2.real if s2 is not None else None,
        s2.imag if s2 is not None else None,
        rec.path,
        rec.classification,
        rec.reachable,
        rec.bounds_ok,
    )
    return to_json(dict(zip(CSV_COLUMNS, values)))
