import json
import math

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
from ratiolab.records import CSV_COLUMNS, SampleRecord, csv_row, fmt_float, jsonl_line, to_json

INV_SQRT3 = 1.0 / SQRT3


def by_w(records):
    return {(round(r.w.real, 9), round(r.w.imag, 9)): r for r in records}


def test_sweep_grid_markers_and_values():
    records = sweep_w_grid((-2.0, 2.0), (-2.0, 2.0), 5)
    assert len(records) == 25
    table = by_w(records)
    origin = table[(0.0, 0.0)]
    assert origin.path == "interior"
    assert abs(origin.sigma1 - (1 - INV_SQRT3)) < 1e-12
    assert origin.classification == "collinear"
    assert origin.reachable and origin.bounds_ok
    ray = table[(0.0, 2.0)]
    assert ray.path == "skip" and ray.sigma1 is None and ray.bounds_ok is None
    assert ray.reachable  # w = 2i is realized by ray pairs
    ext = table[(-1.0, 0.0)]
    assert ext.path == "interior"
    assert ext.sigma1 == 0.5
    assert not ext.reachable
    real_far = table[(2.0, 0.0)]
    assert real_far.path == "interior" and not real_far.reachable
    assert real_far.bounds_ok  # f/g bounds hold even off the realizable set


def test_sweep_validation():
    with pytest.raises(BadRangeError):
        sweep_w_grid((2.0, -2.0), (-1.0, 1.0), 5)
    with pytest.raises(BadRangeError):
        sweep_w_grid((-1.0, 1.0), (-1.0, 1.0), 1)


def test_reachability_rule():
    assert is_reachable(0.5)
    assert is_reachable(2j)
    assert is_reachable(-3 + 0.2j)
    assert not is_reachable(2.0)
    assert not is_reachable(-1.0)
    assert not is_reachable(1.0)


def test_trace_boundary_endpoints_and_peak():
    records = trace_boundary(SQRT3, 100.0, 5000)
    assert len(records) == 10000
    ts = [r.w.imag for r in records]
    assert ts == sorted(ts)
    first_pos = next(r for r in records if r.w.imag > 0 and abs(r.w.imag - SQRT3) < 1e-12)
    assert abs(first_pos.sigma1 - complex(0.5, -SQRT3 / 6)) < 1e-12
    assert first_pos.classification == "equilateral"
    peak = max(r.sigma1.imag for r in records)
    assert abs(peak - 1.0 / 3.0) < 1e-4  # attained near t = -2
    assert all(r.bounds_ok for r in records)


def test_trace_boundary_asymptote():
    records = trace_boundary(999.0, 1000.0, 50)
    tail = records[-1]
    assert abs(tail.sigma1.real - 2.0 / 3.0) < 1e-5


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


def _sample_records():
    return [
        SampleRecord(0.5 + 0.25j, 0.1 + 0.2j, 0.4 - 0.1j, "interior", "generic", True, True),
        SampleRecord(2j, None, None, "skip", "generic", True, None),
        SampleRecord(1 / 3 + 0j, 0.123456789012345678 + 1e-17j, 0.5 + 0j,
                     "interior", "collinear", True, True),
    ]


def test_emit_csv(tmp_path):
    out = tmp_path / "data.csv"
    n = emit_dataset(_sample_records(), out, "csv")
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
    recs = _sample_records()
    assert emit_dataset(recs, out, "jsonl") == 3
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    for line, rec in zip(lines, recs):
        obj = json.loads(line)
        assert obj["w_re"] == rec.w.real
        assert obj["w_im"] == rec.w.imag
        if rec.sigma1 is None:
            assert obj["sigma1_re"] is None
        else:
            assert obj["sigma1_re"] == rec.sigma1.real  # exact reproduction
        assert obj["path"] == rec.path
        assert obj["bounds_ok"] == rec.bounds_ok


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


def _reference_sweep(re_range, im_range, resolution):
    records = []
    for re_w in np.linspace(*re_range, resolution):
        for im_w in np.linspace(*im_range, resolution):
            w = complex(re_w, im_w)
            reachable = is_reachable(w)
            if _on_rays(w):
                records.append(
                    SampleRecord(w, None, None, "skip", _reference_classify_w(w), reachable, None)
                )
                continue
            s1 = f_extension(w)
            s2 = g_extension(w)
            records.append(
                SampleRecord(w, s1, s2, "interior", _reference_classify_w(w), reachable,
                             _reference_bounds_ok(s1, s2))
            )
    return records


def _reference_trace(t_min, t_max, steps):
    ts = np.concatenate([-np.linspace(t_max, t_min, steps), np.linspace(t_min, t_max, steps)])
    records = []
    for t in ts:
        s1 = boundary_sigma1(float(t))
        s2 = 1.0 / (3.0 * (1.0 - s1))
        cls = "equilateral" if abs(abs(t) - SQRT3) <= EQ_TOL else "generic"
        records.append(SampleRecord(complex(0.0, float(t)), s1, s2, "boundary", cls, True,
                                    _reference_bounds_ok(s1, s2)))
    return records


def _assert_same_rows(got, want):
    # labels and flags exactly; sigma to a relative 4 eps, because numpy's
    # complex sqrt and division round differently from cmath's
    rel = 4.0 * np.finfo(float).eps
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.w, a.path, a.classification, a.reachable, a.bounds_ok) == (
            b.w, b.path, b.classification, b.reachable, b.bounds_ok
        )
        for x, y in ((a.sigma1, b.sigma1), (a.sigma2, b.sigma2)):
            if y is None:
                assert x is None
            else:
                assert type(x) is complex and abs(x - y) <= rel * abs(y), (a, b)


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
    records = sweep_w_grid(*args)
    _assert_same_rows(records, _reference_sweep(*args))
    assert {r.path for r in records} == {"interior", "skip"}
    assert {r.classification for r in records} == classes
    assert {r.bounds_ok for r in records} == {True, None}


def test_trace_matches_reference_loop():
    records = trace_boundary(SQRT3, 100.0, 500)
    _assert_same_rows(records, _reference_trace(SQRT3, 100.0, 500))
    assert {r.classification for r in records} == {"generic", "equilateral"}
    assert all(r.bounds_ok for r in records)



# -- the row formatters


def _reference_csv_row(rec):
    cells = [rec.w.real, rec.w.imag]
    for s in (rec.sigma1, rec.sigma2):
        cells += [None, None] if s is None else [s.real, s.imag]
    flags = ["" if x is None else ("true" if x else "false") for x in (rec.reachable, rec.bounds_ok)]
    return ",".join(["" if x is None else fmt_float(x) for x in cells]
                    + [rec.path, rec.classification] + flags)


def _reference_jsonl_line(rec):
    s1, s2 = rec.sigma1, rec.sigma2
    values = (
        rec.w.real, rec.w.imag,
        s1.real if s1 is not None else None, s1.imag if s1 is not None else None,
        s2.real if s2 is not None else None, s2.imag if s2 is not None else None,
        rec.path, rec.classification, rec.reachable, rec.bounds_ok,
    )
    return to_json(dict(zip(CSV_COLUMNS, values)))


def test_row_formatters_match_per_cell_encoding():
    for rec in _sample_records():
        assert csv_row(rec) == _reference_csv_row(rec)
        assert jsonl_line(rec) == _reference_jsonl_line(rec)


def test_row_formatters_spell_non_finite_floats():
    nan, inf = math.nan, math.inf
    records = [
        SampleRecord(complex(nan, 1.0), 0.1 + 0.2j, 0.4 - 0.1j, "interior", "generic", True, True),
        SampleRecord(complex(0.5, inf), None, None, "skip", "generic", True, None),
        SampleRecord(0.5 + 0.25j, complex(-inf, 0.2), complex(0.4, nan), "interior", "generic",
                     False, False),
        SampleRecord(0.5 + 0.25j, 0.1 + 0.2j, None, "interior", "generic", True, None),
    ]
    for rec in records:
        line = csv_row(rec)
        assert line == _reference_csv_row(rec)
        assert "nan" not in line and "inf" not in line
        line = jsonl_line(rec)
        assert line == _reference_jsonl_line(rec)
        json.loads(line)
    assert csv_row(records[0]).startswith("NaN,1,")
    assert csv_row(records[1]).startswith("0.5,Infinity,,,,,")
    assert ",-Infinity,0.20000000000000001,0.40000000000000002,NaN," in csv_row(records[2])
    assert '"sigma1_re": -Infinity' in jsonl_line(records[2])


def test_row_formatters_escape_labels():
    for path in ('say "hi"', "caf\u00e9", "back\\slash"):
        rec = SampleRecord(0.5 + 0.25j, 0.1 + 0.2j, 0.4 - 0.1j, path, "generic", True, True)
        line = jsonl_line(rec)
        assert '"path": ' + json.dumps(path) + "," in line
        assert json.loads(line)["path"] == path
        assert line == _reference_jsonl_line(rec)
