import json
import math
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest

from ratiolab import (
    EQ_TOL,
    DegenerateTriangleError,
    RatioPath,
    RatioVector,
    SQRT3,
    boundary_sigma1,
    check_bounds,
    critical_points_direct,
    emit_dataset,
    f_extension,
    g_extension,
    is_reachable,
    order_roots,
    ratio_angles,
    ratios_direct,
    steiner_inellipse,
    sweep_w_grid,
    trace_boundary,
)
from ratiolab.errors import BadRangeError
from ratiolab.kernel import _on_rays
from ratiolab.mapping import _BLOCK
from ratiolab.records import CSV_COLUMNS, csv_row, fmt_float, jsonl_line, to_json

INV_SQRT3 = 1.0 / SQRT3

#: A dataset row with its cells named after the columns.
Row = namedtuple("Row", CSV_COLUMNS)


def rows_of(blocks):
    """The blocks flattened into named rows, checking each block's shape."""
    rows = []
    for block in blocks:
        assert 0 < len(block) <= _BLOCK
        assert all(type(row) is tuple and len(row) == len(CSV_COLUMNS) for row in block)
        rows.extend(Row(*row) for row in block)
    return rows


def sigma1(row):
    return None if row.sigma1_re is None else complex(row.sigma1_re, row.sigma1_im)


def sigma2(row):
    return None if row.sigma2_re is None else complex(row.sigma2_re, row.sigma2_im)


def by_w(rows):
    return {(round(r.w_re, 9), round(r.w_im, 9)): r for r in rows}


def test_sweep_grid_markers_and_values():
    rows = rows_of(sweep_w_grid((-2.0, 2.0), (-2.0, 2.0), 5))
    assert len(rows) == 25
    table = by_w(rows)
    origin = table[(0.0, 0.0)]
    assert origin.path == "interior"
    assert abs(sigma1(origin) - (1 - INV_SQRT3)) < 1e-12
    assert origin.classification == "collinear"
    assert origin.reachable and origin.bounds_ok
    ray = table[(0.0, 2.0)]
    assert ray.path == "skip" and ray.bounds_ok is None
    assert ray[2:6] == (None, None, None, None)
    assert ray.reachable  # w = 2i is realized by ray pairs
    ext = table[(-1.0, 0.0)]
    assert ext.path == "interior"
    assert sigma1(ext) == 0.5
    assert not ext.reachable
    real_far = table[(2.0, 0.0)]
    assert real_far.path == "interior" and not real_far.reachable
    assert real_far.bounds_ok  # f/g bounds hold even off the realizable set


def test_sweep_blocks_follow_grid_order():
    blocks = list(sweep_w_grid((-1.0, 1.0), (-1.0, 1.0), 100))
    assert [len(b) for b in blocks] == [_BLOCK, _BLOCK, 10_000 - 2 * _BLOCK]
    w = [complex(r[0], r[1]) for b in blocks for r in b]
    axis = np.linspace(-1.0, 1.0, 100)
    assert w == [complex(x, y) for x in axis for y in axis]


def test_sweep_validation():
    with pytest.raises(BadRangeError):
        list(sweep_w_grid((2.0, -2.0), (-1.0, 1.0), 5))
    with pytest.raises(BadRangeError):
        list(sweep_w_grid((-1.0, 1.0), (-1.0, 1.0), 1))
    for bad in (math.inf, math.nan, 1e300):
        with pytest.raises(BadRangeError):
            list(sweep_w_grid((-1.0, bad), (-1.0, 1.0), 5))
        with pytest.raises(BadRangeError):
            list(sweep_w_grid((-1.0, 1.0), (-bad, 1.0), 5))


def test_trace_validation():
    for t_min, t_max, steps in ((2.0, 2.0, 10), (1.0, 5.0, 10), (2.0, 5.0, 1),
                                (2.0, 1e300, 10), (2.0, math.inf, 10), (2.0, math.nan, 10)):
        with pytest.raises(BadRangeError):
            list(trace_boundary(t_min, t_max, steps))


def test_datasets_finite_at_the_magnitude_limit():
    # 3 + w*w overflows near 1.3e154; the ranges stop at 1e100
    rows = rows_of(sweep_w_grid((-1e100, 1e100), (-1e100, 1e100), 7))
    rows += rows_of(trace_boundary(2.0, 1e100, 7))

    def strict(token):
        raise ValueError(f"non-finite token {token}")

    for row in rows:
        assert all(x is None or math.isfinite(x) for x in row[:6]), row
        json.loads(jsonl_line(row), parse_constant=strict)


def test_sweep_memory_flat_in_resolution():
    def peak(resolution):
        tracemalloc.start()
        try:
            for _ in sweep_w_grid((-3.0, 3.0), (-3.0, 3.0), resolution):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(91), peak(301)  # 8 281 and 90 601 points
    assert large < 1.25 * small, (small, large)


def test_reachability_rule():
    assert is_reachable(0.5)
    assert is_reachable(2j)
    assert is_reachable(-3 + 0.2j)
    assert not is_reachable(2.0)
    assert not is_reachable(-1.0)
    assert not is_reachable(1.0)


def test_trace_boundary_endpoints_and_peak():
    rows = rows_of(trace_boundary(SQRT3, 100.0, 5000))
    assert len(rows) == 10000
    ts = [r.w_im for r in rows]
    assert ts == sorted(ts)
    first_pos = next(r for r in rows if r.w_im > 0 and abs(r.w_im - SQRT3) < 1e-12)
    assert abs(sigma1(first_pos) - complex(0.5, -SQRT3 / 6)) < 1e-12
    assert first_pos.classification == "equilateral"
    peak = max(r.sigma1_im for r in rows)
    assert abs(peak - 1.0 / 3.0) < 1e-4  # attained near t = -2
    assert all(r.bounds_ok for r in rows)


def test_trace_boundary_asymptote():
    tail = rows_of(trace_boundary(999.0, 1000.0, 50))[-1]
    assert abs(tail.sigma1_re - 2.0 / 3.0) < 1e-5


def test_steiner_inellipse_equilateral_circle():
    ell = steiner_inellipse(order_roots(-1, SQRT3 * 1j, 1))
    center = 1j * INV_SQRT3
    assert abs(ell.center - center) < 1e-10
    assert abs(ell.focus1 - center) < 1e-7
    assert abs(ell.focus2 - center) < 1e-7
    assert abs(ell.semi_major - ell.semi_minor) < 1e-10


def test_steiner_inellipse_rejects_collinear():
    with pytest.raises(DegenerateTriangleError):
        steiner_inellipse(order_roots(-1, 0, 1))


def test_steiner_inellipse_matches_critical_points():
    c = order_roots(-4 - 1j, -2 + 8j, 4 + 1j)
    ell = steiner_inellipse(c)
    assert abs(ell.focus1 - (-1 + 4j)) < 1e-8
    assert abs(ell.focus2 - (-1 + 4j) / 3) < 1e-8
    mids = {
        (c.w1 + c.w2) / 2,
        (c.w2 + c.w3) / 2,
        (c.w3 + c.w1) / 2,
    }
    assert all(any(abs(t - m) < 1e-12 for m in mids) for t in ell.tangency_points)


def _ellipse_frame_value(ell, p):
    """Implicit ellipse value ((x/a)^2 + (y/b)^2 - 1) in the fitted frame."""
    focal = ell.focus2 - ell.focus1
    if abs(focal) > 1e-9 * ell.semi_major:
        direction = focal / abs(focal)
    else:
        direction = 1 + 0j
    rel = (p - ell.center) / direction
    return (rel.real / ell.semi_major) ** 2 + (rel.imag / ell.semi_minor) ** 2 - 1.0


def test_steiner_inellipse_tangency(rng):
    for _ in range(50):
        ws = rng.uniform(-5, 5, size=6)
        try:
            c = order_roots(complex(*ws[:2]), complex(*ws[2:4]), complex(*ws[4:]))
            ell = steiner_inellipse(c)
        except Exception:
            continue
        for k, (p, q) in enumerate(((c.w1, c.w2), (c.w2, c.w3), (c.w3, c.w1))):
            m = (p + q) / 2
            # midpoint lies on the conic
            assert abs(_ellipse_frame_value(ell, m)) < 1e-8
            # gradient at the midpoint is normal to the side
            eps = 1e-6 * abs(q - p)
            d = (q - p) / abs(q - p)
            along = (
                _ellipse_frame_value(ell, m + eps * d)
                - _ellipse_frame_value(ell, m - eps * d)
            ) / (2 * eps)
            assert abs(along) < 1e-6


def test_ratio_angles_examples():
    th1, th2 = ratio_angles(order_roots(-1, 0, 1))
    assert abs(th1) < 1e-15 and abs(th2) < 1e-15
    c = order_roots(-1, SQRT3 * 1j, 1)
    rv = ratios_direct(c)
    th1, th2 = ratio_angles(c)
    assert abs(th1 - math.atan2(rv.sigma1.imag, rv.sigma1.real)) < 1e-12
    c = order_roots(-4 - 1j, -2 + 8j, 4 + 1j)
    rv = ratios_direct(c)
    th1, th2 = ratio_angles(c)
    assert abs(th1 - math.atan2(rv.sigma1.imag, rv.sigma1.real)) < 1e-12
    assert abs(th2 - math.atan2(rv.sigma2.imag, rv.sigma2.real)) < 1e-12


def _sample_rows():
    return [
        (0.5, 0.25, 0.1, 0.2, 0.4, -0.1, "interior", "generic", True, True),
        (0.0, 2.0, None, None, None, None, "skip", "generic", True, None),
        (1 / 3, 0.0, 0.123456789012345678, 1e-17, 0.5, 0.0, "interior", "collinear", True, True),
    ]


def test_emit_csv(tmp_path):
    out = tmp_path / "data.csv"
    n = emit_dataset([_sample_rows()[:2], _sample_rows()[2:]], out, "csv")
    assert n == 3
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0] == (
        "w_re,w_im,sigma1_re,sigma1_im,sigma2_re,sigma2_im,"
        "path,classification,reachable,bounds_ok"
    )
    assert lines[2].startswith("0,2,,,,,skip,generic,true,")
    # 17 significant digits round-trip
    cells = lines[3].split(",")
    assert float(cells[0]) == 1 / 3
    assert float(cells[2]) == 0.123456789012345678


def test_emit_csv_empty(tmp_path):
    out = tmp_path / "empty.csv"
    assert emit_dataset([], out, "csv") == 0
    assert out.read_text().splitlines() == [
        "w_re,w_im,sigma1_re,sigma1_im,sigma2_re,sigma2_im,"
        "path,classification,reachable,bounds_ok"
    ]


def test_emit_jsonl_round_trip(tmp_path):
    out = tmp_path / "data.jsonl"
    rows = _sample_rows()
    assert emit_dataset([rows], out, "jsonl") == 3
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    for line, row in zip(lines, rows):
        # every cell reproduced exactly, None as null
        assert tuple(json.loads(line).values()) == row


def test_emit_rejects_unknown_format(tmp_path):
    with pytest.raises(BadRangeError):
        emit_dataset([], tmp_path / "x.bin", "parquet")


def test_sweep_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    emit_dataset(sweep_w_grid((-1.5, 1.5), (-2.5, 2.5), 21), a, "csv")
    emit_dataset(sweep_w_grid((-1.5, 1.5), (-2.5, 2.5), 21), b, "csv")
    assert a.read_bytes() == b.read_bytes()


def test_marden_agreement_sample(rng):
    checked = 0
    while checked < 500:
        ws = rng.uniform(-10, 10, size=6)
        scale = 10.0 ** rng.uniform(-2, 2)
        w1 = complex(*ws[:2]) * scale
        w2 = complex(*ws[2:4]) * scale
        w3 = complex(*ws[4:]) * scale
        diam = max(abs(w1 - w2), abs(w1 - w3), abs(w2 - w3))
        area = abs(((w2 - w1) * (w3 - w1).conjugate()).imag) / 2
        if area < 1e-4 * diam * diam:
            continue
        try:
            c = order_roots(w1, w2, w3)
        except Exception:
            continue
        ell = steiner_inellipse(c)
        za, zb = critical_points_direct(c.w1, c.w2, c.w3)
        zs = sorted((za, zb), key=lambda z: (z.real, z.imag))
        err = max(abs(ell.focus1 - zs[0]), abs(ell.focus2 - zs[1]))
        assert err < 1e-8 * diam
        centroid = (c.w1 + c.w2 + c.w3) / 3.0
        assert abs(ell.center - centroid) < 1e-10 * max(1.0, diam)
        assert ell.semi_major >= ell.semi_minor > 0.0
        checked += 1


# -- the per-point loops the array evaluation replaced, kept as references


def _reference_classify_w(w: complex) -> str:
    if abs(w - SQRT3 * 1j) <= EQ_TOL or abs(w + SQRT3 * 1j) <= EQ_TOL:
        return "equilateral"
    if abs(w.imag) <= EQ_TOL:
        return "collinear"
    return "generic"


def _reference_bounds_ok(s1: complex, s2: complex) -> bool:
    return all(rep.passed for rep in check_bounds(RatioVector(s1, s2, RatioPath.INTERIOR)))


def _reference_row(w, s1, s2, path, classification, reachable, bounds_ok):
    cells = [w.real, w.imag]
    for s in (s1, s2):
        cells += [None, None] if s is None else [s.real, s.imag]
    return Row(*cells, path, classification, reachable, bounds_ok)


def _reference_sweep(re_range, im_range, resolution):
    rows = []
    for re_w in np.linspace(*re_range, resolution):
        for im_w in np.linspace(*im_range, resolution):
            w = complex(re_w, im_w)
            reachable = bool(is_reachable(w))
            if _on_rays(w):
                rows.append(
                    _reference_row(w, None, None, "skip", _reference_classify_w(w), reachable, None)
                )
                continue
            s1 = f_extension(w)
            s2 = g_extension(w)
            rows.append(
                _reference_row(w, s1, s2, "interior", _reference_classify_w(w), reachable,
                               _reference_bounds_ok(s1, s2))
            )
    return rows


def _reference_trace(t_min, t_max, steps):
    ts = np.concatenate([-np.linspace(t_max, t_min, steps), np.linspace(t_min, t_max, steps)])
    rows = []
    for t in ts:
        s1 = boundary_sigma1(float(t))
        s2 = 1.0 / (3.0 * (1.0 - s1))
        cls = "equilateral" if abs(abs(t) - SQRT3) <= EQ_TOL else "generic"
        rows.append(_reference_row(complex(0.0, float(t)), s1, s2, "boundary", cls, True,
                                   _reference_bounds_ok(s1, s2)))
    return rows


def _assert_same_rows(got, want):
    # w, labels and flags exactly, with their Python types; sigma to a
    # relative 4 eps, because numpy's complex sqrt and division round
    # differently from cmath's
    rel = 4.0 * np.finfo(float).eps
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a[:2] == b[:2] and a[6:] == b[6:], (a, b)
        assert [type(x) for x in a] == [type(x) for x in b], (a, b)
        for x, y in ((sigma1(a), sigma1(b)), (sigma2(a), sigma2(b))):
            if y is None:
                assert x is None
            else:
                assert abs(x - y) <= rel * abs(y), (a, b)


@pytest.mark.parametrize(
    "im_range, classes",
    [
        ((-3.0, 3.0), {"generic", "collinear"}),
        # +-i sqrt(3) are the ends of this grid's middle column
        ((-SQRT3, SQRT3), {"generic", "collinear", "equilateral"}),
    ],
)
def test_sweep_matches_reference_loop(im_range, classes):
    args = ((-3.0, 3.0), im_range, 41)
    rows = rows_of(sweep_w_grid(*args))
    _assert_same_rows(rows, _reference_sweep(*args))
    assert {r.path for r in rows} == {"interior", "skip"}
    assert {r.classification for r in rows} == classes
    assert {r.bounds_ok for r in rows} == {True, None}


def test_trace_matches_reference_loop():
    rows = rows_of(trace_boundary(SQRT3, 100.0, 500))
    _assert_same_rows(rows, _reference_trace(SQRT3, 100.0, 500))
    assert {r.classification for r in rows} == {"generic", "equilateral"}
    assert all(r.bounds_ok for r in rows)



# -- the row formatters


def _reference_csv_row(row):
    flags = ["" if x is None else ("true" if x else "false") for x in row[8:]]
    return ",".join(["" if x is None else fmt_float(x) for x in row[:6]] + list(row[6:8]) + flags)


def _reference_jsonl_line(row):
    return to_json(dict(zip(CSV_COLUMNS, row)))


def test_row_formatters_match_per_cell_encoding():
    for row in _sample_rows():
        assert csv_row(row) == _reference_csv_row(row)
        assert jsonl_line(row) == _reference_jsonl_line(row)


def test_row_formatters_spell_non_finite_floats():
    nan, inf = math.nan, math.inf
    rows = [
        (nan, 1.0, 0.1, 0.2, 0.4, -0.1, "interior", "generic", True, True),
        (0.5, inf, None, None, None, None, "skip", "generic", True, None),
        (0.5, 0.25, -inf, 0.2, 0.4, nan, "interior", "generic", False, False),
        (0.5, 0.25, 0.1, 0.2, None, None, "interior", "generic", True, None),
    ]
    for row in rows:
        line = csv_row(row)
        assert line == _reference_csv_row(row)
        assert "nan" not in line and "inf" not in line
        line = jsonl_line(row)
        assert line == _reference_jsonl_line(row)
        json.loads(line)
    assert csv_row(rows[0]).startswith("NaN,1,")
    assert csv_row(rows[1]).startswith("0.5,Infinity,,,,,")
    assert ",-Infinity,0.20000000000000001,0.40000000000000002,NaN," in csv_row(rows[2])
    assert '"sigma1_re": -Infinity' in jsonl_line(rows[2])


def test_row_formatters_escape_labels():
    for path in ('say "hi"', "caf\u00e9", "back\\slash"):
        row = (0.5, 0.25, 0.1, 0.2, 0.4, -0.1, path, "generic", True, True)
        line = jsonl_line(row)
        assert '"path": ' + json.dumps(path) + "," in line
        assert json.loads(line)["path"] == path
        assert line == _reference_jsonl_line(row)
