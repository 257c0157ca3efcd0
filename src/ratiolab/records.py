"""Dataset row schema shared by the region mapper, theorem witnesses, and CLI.

One SampleRecord is one row. CSV columns appear in exactly this order:

    w_re, w_im, sigma1_re, sigma1_im, sigma2_re, sigma2_im,
    path, classification, reachable, bounds_ok

JSONL uses the same field names, one object per line. Floats are rendered
with 17 significant digits so parsing reproduces them exactly; rows whose
ratios were skipped leave the sigma cells empty (null in JSONL). to_json is
the one JSON encoder of the package: every CLI output line goes through it.
csv_row and jsonl_line write a dataset row with one %-template and write
exactly what the per-cell encoders (fmt_float, to_json) would; a row with a
non-finite float, or with only one of its two ratios, goes through those
encoders so NaN and infinities keep their JSON spelling.
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


def _float_cells(rec: SampleRecord) -> tuple:
    """w and the two ratios as six floats in column order, None where a
    ratio is absent."""
    s1 = rec.sigma1
    s2 = rec.sigma2
    return (
        rec.w.real,
        rec.w.imag,
        *((None, None) if s1 is None else (s1.real, s1.imag)),
        *((None, None) if s2 is None else (s2.real, s2.imag)),
    )


def _fill(rec: SampleRecord, row: str, skip_row: str, flags: tuple) -> Optional[str]:
    """The row's %-template filled in: row when both ratios are present,
    skip_row when both are absent. None when only one is present or a float
    cell is not finite (the template would spell it nan/inf); the per-cell
    encoders write those rows. A label holding "nan" or "inf" lands there
    too, which costs time but changes no byte."""
    s1 = rec.sigma1
    s2 = rec.sigma2
    if s1 is not None and s2 is not None:
        line = row % (rec.w.real, rec.w.imag, s1.real, s1.imag, s2.real, s2.imag, *flags)
    elif s1 is None and s2 is None:
        line = skip_row % (rec.w.real, rec.w.imag, *flags)
    else:
        return None
    return None if "nan" in line or "inf" in line else line


_CSV_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s,%s,%s,%s"
_CSV_SKIP_ROW = "%.17g,%.17g,,,,,%s,%s,%s,%s"
_CSV_BOOL = {None: "", True: "true", False: "false"}


def csv_row(rec: SampleRecord) -> str:
    """One CSV line, without the newline."""
    flags = (rec.path, rec.classification, _CSV_BOOL[rec.reachable], _CSV_BOOL[rec.bounds_ok])
    line = _fill(rec, _CSV_ROW, _CSV_SKIP_ROW, flags)
    if line is None:
        cells = ["" if x is None else fmt_float(x) for x in _float_cells(rec)]
        line = ",".join(cells + list(flags))
    return line


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


_JSONL_ROW = (
    '{"w_re": %.17g, "w_im": %.17g, "sigma1_re": %.17g, "sigma1_im": %.17g, '
    '"sigma2_re": %.17g, "sigma2_im": %.17g, "path": %s, "classification": %s, '
    '"reachable": %s, "bounds_ok": %s}'
)
_JSONL_SKIP_ROW = (
    '{"w_re": %.17g, "w_im": %.17g, "sigma1_re": null, "sigma1_im": null, '
    '"sigma2_re": null, "sigma2_im": null, "path": %s, "classification": %s, '
    '"reachable": %s, "bounds_ok": %s}'
)
_JSON_BOOL = {None: "null", True: "true", False: "false"}


def jsonl_line(rec: SampleRecord) -> str:
    """One JSONL line, without the newline: the bytes to_json writes for the
    row's column dict."""
    flags = (
        _quote(rec.path),
        _quote(rec.classification),
        _JSON_BOOL[rec.reachable],
        _JSON_BOOL[rec.bounds_ok],
    )
    line = _fill(rec, _JSONL_ROW, _JSONL_SKIP_ROW, flags)
    if line is None:
        values = _float_cells(rec) + (rec.path, rec.classification, rec.reachable, rec.bounds_ok)
        line = to_json(dict(zip(CSV_COLUMNS, values)))
    return line
