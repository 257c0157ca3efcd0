"""Dataset row schema shared by the region mapper, theorem witnesses, and CLI.

A dataset row is a plain tuple of ten cells in exactly this order, which is
also the CSV column order:

    w_re, w_im, sigma1_re, sigma1_im, sigma2_re, sigma2_im,
    path, classification, reachable, bounds_ok

JSONL uses the same field names, one object per line. Floats are rendered
with 17 significant digits so parsing reproduces them exactly; rows whose
ratios were skipped hold None in the four sigma cells and in bounds_ok
(empty in CSV, null in JSONL). csv_row and jsonl_line write a row with one
%-template and write exactly what the per-cell encoders (fmt_float,
to_json) would; a row with a non-finite float, or with only some of its
sigma cells, goes through those encoders so NaN and infinities keep their
JSON spelling. to_json is the one JSON encoder of the package: every CLI
output line goes through it. SampleRecord is the witness record of the
claim reports (w, sigma1, sigma2, path, classification), not a dataset row.
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
    """The witness of a claim report: the five fields verify prints, in
    the order it prints them."""

    w: complex
    sigma1: complex
    sigma2: complex
    path: str
    classification: str


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def fmt_float(x: float) -> str:
    s = format(float(x), ".17g")
    return _NON_FINITE.get(s, s)


_NO_SIGMA = (None, None, None, None)


def _templated(row: tuple, full: str, skip: str, flags: tuple) -> Optional[str]:
    """The row through a %-template: full when its four sigma cells are
    present, skip when all four are None. None when only some are present
    or a float cell is not finite (the template would spell it nan/inf);
    the per-cell encoders write those rows. A label holding "nan" or "inf"
    lands there too, which costs time but changes no byte."""
    sigma = row[2:6]
    if sigma == _NO_SIGMA:
        line = skip % (row[0], row[1], *flags)
    elif None in sigma:
        return None
    else:
        line = full % (*row[:6], *flags)
    return None if "nan" in line or "inf" in line else line


_CSV_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s,%s,%s,%s"
_CSV_SKIP_ROW = "%.17g,%.17g,,,,,%s,%s,%s,%s"
_CSV_BOOL = {None: "", True: "true", False: "false"}


def csv_row(row: tuple) -> str:
    """One CSV line, without the newline."""
    flags = (row[6], row[7], _CSV_BOOL[row[8]], _CSV_BOOL[row[9]])
    line = _templated(row, _CSV_ROW, _CSV_SKIP_ROW, flags)
    if line is None:
        line = ",".join(["" if x is None else fmt_float(x) for x in row[:6]] + list(flags))
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


def jsonl_line(row: tuple) -> str:
    """One JSONL line, without the newline: the bytes to_json writes for the
    row's column dict."""
    flags = (_quote(row[6]), _quote(row[7]), _JSON_BOOL[row[8]], _JSON_BOOL[row[9]])
    line = _templated(row, _JSONL_ROW, _JSONL_SKIP_ROW, flags)
    if line is None:
        line = to_json(dict(zip(CSV_COLUMNS, row)))
    return line
