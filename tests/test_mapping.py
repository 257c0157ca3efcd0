import cmath
import json
import math
import tracemalloc
from collections import Counter, namedtuple

import mpmath
import numpy as np
import pytest

from ratiolab import (
    EQ_TOL,
    DegenerateTriangleError,
    RatioPath,
    RatioVector,
    SQRT3,
    UndefinedRatioError,
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
from ratiolab.cubic import Configuration, classify_configuration
from ratiolab.errors import BadRangeError
from ratiolab.kernel import _on_rays
from ratiolab.mapping import _BLOCK, InEllipse
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


def test_dataset_counts_must_be_integers():
    # rejected at the first block, before any row is made
    for bad in (2.5, 10.0, "5"):
        with pytest.raises(BadRangeError, match="resolution must be an integer"):
            next(sweep_w_grid((-1.0, 1.0), (-1.0, 1.0), bad))
        with pytest.raises(BadRangeError, match="steps must be an integer"):
            next(trace_boundary(2.0, 3.0, bad))
    assert list(sweep_w_grid((-1.0, 1.0), (-1.0, 1.0), np.int64(3))) == list(
        sweep_w_grid((-1.0, 1.0), (-1.0, 1.0), 3))
    assert list(trace_boundary(2.0, 3.0, np.int64(3))) == list(trace_boundary(2.0, 3.0, 3))


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


def test_trace_memory_flat_in_steps():
    # only the t grid (8 B per row) grows with steps; each block's sigma
    # values are computed with the block
    def peak(steps):
        tracemalloc.start()
        try:
            for _ in trace_boundary(2.0, 100.0, steps):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(5000), peak(50000)  # 10 000 and 100 000 rows
    assert large - small < 24 * 90000, (small, large)


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
    # the phases of (z - p) conj(q - p) are atan2(cross, dot) bit for bit:
    # the product's parts are the same dot and cross with the same roundings
    rng = np.random.default_rng(30)
    checked = 0
    while checked < 2000:
        ws = rng.uniform(-10, 10, size=6) * 10.0 ** rng.uniform(-3, 3)
        try:
            c = order_roots(complex(*ws[:2]), complex(*ws[2:4]), complex(*ws[4:]))
        except UndefinedRatioError:
            continue
        got = [th.hex() for th in ratio_angles(c)]
        assert got == [th.hex() for th in _reference_ratio_angles(c)], c
        checked += 1


def _reference_ratio_angles(c):
    """ratio_angles as atan2 of the cross and dot products of the sides."""
    u1 = c.w2 - c.w1
    v1 = c.z1 - c.w1
    u2 = c.w3 - c.w2
    v2 = c.z2 - c.w2
    th1 = math.atan2(
        u1.real * v1.imag - u1.imag * v1.real, u1.real * v1.real + u1.imag * v1.imag
    )
    th2 = math.atan2(
        u2.real * v2.imag - u2.imag * v2.real, u2.real * v2.real + u2.imag * v2.imag
    )
    return th1, th2


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


# -- the LAPACK reduction the closed form replaced, kept as the reference


def _reference_inellipse(c):
    """(focus1, focus2, semi_major, semi_minor) from the same six-row SVD
    fit, reduced with np.linalg.solve and eigh; raises
    DegenerateTriangleError where steiner_inellipse used to."""
    if classify_configuration(c) is Configuration.COLLINEAR:
        raise DegenerateTriangleError("triangle is numerically collinear")
    ctr = (c.w1 + c.w2 + c.w3) / 3.0
    scale = max(abs(v - ctr) for v in (c.w1, c.w2, c.w3))
    vs = [(v - ctr) / scale for v in (c.w1, c.w2, c.w3)]
    rows = []
    for k in range(3):
        p, q = vs[k], vs[(k + 1) % 3]
        m, d = (p + q) / 2.0, q - p
        x, y, dx, dy = m.real, m.imag, d.real, d.imag
        rows.append([x * x, x * y, y * y, x, y, 1.0])
        rows.append([2.0 * x * dx, y * dx + x * dy, 2.0 * y * dy, dx, dy, 0.0])
    _, _, vt = np.linalg.svd(np.array(rows))
    A, B, C, D, E, F = vt[-1]

    q2 = np.array([[A, B / 2.0], [B / 2.0, C]])
    try:
        cen = np.linalg.solve(q2, [-D / 2.0, -E / 2.0])
    except np.linalg.LinAlgError as exc:
        raise DegenerateTriangleError("conic has no center") from exc
    k0 = F + (D / 2.0) * cen[0] + (E / 2.0) * cen[1]
    evals, evecs = np.linalg.eigh(q2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ax2 = -k0 / evals
    if not np.all(np.isfinite(ax2)) or np.any(ax2 <= 0.0):
        raise DegenerateTriangleError("fitted conic is not an ellipse")
    order = np.argsort(ax2)[::-1]
    semi_major = math.sqrt(float(ax2[order[0]]))
    semi_minor = math.sqrt(float(ax2[order[1]]))
    major_dir = complex(evecs[0, order[0]], evecs[1, order[0]])
    focal = math.sqrt(max(semi_major**2 - semi_minor**2, 0.0))

    center = ctr + scale * complex(cen[0], cen[1])
    fa = center + scale * focal * major_dir
    fb = center - scale * focal * major_dir
    f1, f2 = sorted((fa, fb), key=lambda z: (z.real, z.imag))
    return f1, f2, semi_major * scale, semi_minor * scale


def _relative_area(c):
    """(area / diameter^2, diameter) of the root triangle."""
    diam = max(abs(c.w1 - c.w2), abs(c.w1 - c.w3), abs(c.w2 - c.w3))
    return abs(((c.w2 - c.w1) * (c.w3 - c.w1).conjugate()).imag) / 2.0 / (diam * diam), diam


def _fits(fit, c) -> bool:
    """Whether fit(c) returns rather than raising DegenerateTriangleError."""
    try:
        fit(c)
    except DegenerateTriangleError:
        return False
    return True


def test_steiner_inellipse_matches_lapack_reference():
    # triangles drawn like criterion 9's; measured worst focus gap 2.4e-10 of
    # the diameter and semi-axis gap 7.5e-10 relative on 1e5 of them
    rng = np.random.default_rng(105)
    checked = 0
    while checked < 10_000:
        ws = rng.uniform(-10, 10, size=6) * 10.0 ** rng.uniform(-2, 2)
        c = order_roots(complex(*ws[:2]), complex(*ws[2:4]), complex(*ws[4:]))
        rel_area, diam = _relative_area(c)
        if rel_area < 1e-4:
            continue
        ell = steiner_inellipse(c)
        f1, f2, semi_major, semi_minor = _reference_inellipse(c)
        assert abs(ell.focus1 - f1) < 1e-9 * diam
        assert abs(ell.focus2 - f2) < 1e-9 * diam
        assert abs(ell.semi_major - semi_major) < 5e-9 * semi_major
        assert abs(ell.semi_minor - semi_minor) < 5e-9 * semi_minor
        assert ell.semi_major >= ell.semi_minor > 0.0
        checked += 1


def _mp_critical_points(c):
    """The critical points of the cubic with roots c.roots, to 50 digits."""
    with mpmath.workdps(50):
        w1, w2, w3 = (mpmath.mpc(z.real, z.imag) for z in c.roots)
        e1 = w1 + w2 + w3
        r = mpmath.sqrt(e1 * e1 - 3 * (w1 * w2 + w1 * w3 + w2 * w3))
        return complex((e1 - r) / 3), complex((e1 + r) / 3)


@pytest.mark.parametrize("area", [1e-1, 1e-2, 1e-3, 1e-4])
def test_steiner_inellipse_conditioning(area):
    # the focus error grows like eps / (relative area)^2: 50 triangles of
    # each relative area, measured worst 0.30 eps/area^2 of the diameter
    # against 50-digit critical points
    rng = np.random.default_rng([30, round(-math.log10(area))])
    worst = 0.0
    checked = 0
    while checked < 50:
        size = 10.0 ** rng.uniform(-2, 2)
        p = complex(*rng.uniform(-size, size, size=2))
        q = p + size * complex(*rng.normal(size=2))
        # the third vertex at height 2 area |q - p| over side pq, whose
        # length stays the diameter: the relative area is area
        r = p + complex(rng.uniform(0.1, 0.9), 2.0 * area * rng.choice([-1.0, 1.0])) * (q - p)
        try:
            c = order_roots(p, r, q)
        except UndefinedRatioError:
            continue
        ell = steiner_inellipse(c)
        za, zb = _mp_critical_points(c)
        err = min(
            max(abs(ell.focus1 - za), abs(ell.focus2 - zb)),
            max(abs(ell.focus1 - zb), abs(ell.focus2 - za)),
        )
        worst = max(worst, err / _relative_area(c)[1])
        checked += 1
    assert worst <= 2.0 * np.finfo(float).eps / area**2


def test_steiner_inellipse_slivers_raise_only_degenerate():
    # three points on a random line, the middle one moved off it by
    # 10^[-8, -2]: only DegenerateTriangleError escapes (a bare closed form
    # divides by a zero eigenvalue or takes the root of a negative axis),
    # and the ellipse-or-degenerate decision is the reference's wherever the
    # relative area clears the collinear band (the disagreements measured
    # lie at relative areas below 2e-8)
    rng = np.random.default_rng(5)
    n = 20_000
    ends = rng.uniform(-5, 5, size=(n, 4))
    along = rng.uniform(0, 1, size=n)
    offset = 10.0 ** rng.uniform(-8, -2, size=n) * rng.choice([-1.0, 1.0], size=n)
    decided = 0
    for (px, py, qx, qy), s, h in zip(ends.tolist(), along.tolist(), offset.tolist()):
        p, q = complex(px, py), complex(qx, qy)
        c = order_roots(p, p + (s + 1j * h / abs(q - p)) * (q - p), q)
        fitted = _fits(steiner_inellipse, c)
        if _relative_area(c)[0] >= 1e-7:
            assert fitted == _fits(_reference_inellipse, c)
            decided += 1
    assert decided > n // 2


# -- the fit before its rows were unrolled, kept verbatim as the bit-for-bit
# reference


def _reference_steiner_inellipse(c):
    if classify_configuration(c) is Configuration.COLLINEAR:
        raise DegenerateTriangleError("triangle is numerically collinear")
    ctr = (c.w1 + c.w2 + c.w3) / 3.0
    scale = max(abs(v - ctr) for v in c.roots)
    p1, p2, p3 = ((v - ctr) / scale for v in c.roots)
    sides = ((p1, p2), (p2, p3), (p3, p1))
    rows = []
    for p, q in sides:
        m, d = (p + q) / 2.0, q - p
        x, y, dx, dy = m.real, m.imag, d.real, d.imag
        rows.append([x * x, x * y, y * y, x, y, 1.0])
        rows.append([2.0 * x * dx, y * dx + x * dy, 2.0 * y * dy, dx, dy, 0.0])
    _, _, vt = np.linalg.svd(np.array(rows))
    A, B, C, D, E, F = vt[-1].tolist()

    det = A * C - B * B / 4.0
    if not det > 0.0:
        raise DegenerateTriangleError("fitted conic is not an ellipse")
    cx = (B * E / 4.0 - C * D / 2.0) / det
    cy = (B * D / 4.0 - A * E / 2.0) / det
    k0 = F + (D / 2.0) * cx + (E / 2.0) * cy
    mean = (A + C) / 2.0
    lam = mean + math.copysign(math.hypot((A - C) / 2.0, B / 2.0), mean)
    ax2_minor = -k0 / lam
    if not ax2_minor > 0.0:
        raise DegenerateTriangleError("fitted conic is not an ellipse")

    center = ctr + scale * complex(cx, cy)
    focal = scale * cmath.sqrt(k0 * complex(A - C, B) / det)
    f1, f2 = sorted((center - focal, center + focal), key=lambda z: (z.real, z.imag))
    return InEllipse(
        center=center,
        focus1=f1,
        focus2=f2,
        semi_major=math.sqrt(-k0 * lam / det) * scale,
        semi_minor=math.sqrt(ax2_minor) * scale,
        tangency_points=tuple(ctr + scale * ((p + q) / 2.0) for p, q in sides),
    )


def _inellipse_bits(fit, c):
    """The type of fit(c) and of each field, with the float.hex of the
    field's real and imaginary parts; or the type and message of the
    DegenerateTriangleError that fit(c) raises."""
    try:
        ell = fit(c)
    except DegenerateTriangleError as exc:
        return type(exc), str(exc)
    fields = (*ell[:5], *ell.tangency_points)
    return type(ell), [(type(v), v.real.hex(), v.imag.hex()) for v in fields]


def _inellipse_triangles(rng, n):
    """n root triangles of each of six families, as an (6 n, 3) complex
    array: generic, exact equilateral, near-equilateral, ray (w = i t),
    slivers at relative areas 10^U(log10 2e-9, -2) and exact collinear
    triples. Each is rotated (the exact ones only by half turns), scaled by
    10^U(-5, 5) and translated."""
    gen = rng.uniform(-1, 1, (n, 3)) + 1j * rng.uniform(-1, 1, (n, 3))
    equi = np.broadcast_to([-1, SQRT3 * 1j, 1], (n, 3))
    kick = 10.0 ** rng.uniform(-9, -3, (n, 1)) * np.exp(2j * np.pi * rng.uniform(size=(n, 1)))
    near = equi + [0, 1, 0] * kick
    t = rng.choice([-1.0, 1.0], (n, 1)) * 10.0 ** rng.uniform(np.log10(SQRT3), 4, (n, 1))
    ray = np.hstack([-np.ones((n, 1)), 1j * t, np.ones((n, 1))])
    # the third vertex at height 2 area |q - p| over side pq, whose length
    # stays the diameter: the relative area is area
    area = 10.0 ** rng.uniform(np.log10(2e-9), -2, n) * rng.choice([-1.0, 1.0], n)
    sliver = np.stack([np.zeros(n), rng.uniform(0.1, 0.9, n) + 2j * area, np.ones(n)], axis=1)
    # integer ends and a dyadic point between them: collinear in floats
    ends = rng.integers(-8, 9, (n, 2)) + 1j * rng.integers(-8, 9, (n, 2))
    along = rng.choice([0.25, 0.5, 0.75], n)
    line = np.stack([ends[:, 0], ends[:, 0] + along * (ends[:, 1] - ends[:, 0]), ends[:, 1]], 1)
    turn = np.exp(2j * np.pi * rng.uniform(size=(6 * n, 1)))
    exact = np.repeat([False, True, False, False, False, True], n)
    turn[exact] = rng.choice([1.0, -1.0], (exact.sum(), 1))
    size = 10.0 ** rng.uniform(-5, 5, (6 * n, 1))
    shift = size * (rng.uniform(-10, 10, (6 * n, 1)) + 1j * rng.uniform(-10, 10, (6 * n, 1)))
    return np.concatenate([gen, equi, near, ray, sliver, line]) * turn * size + shift


def test_steiner_inellipse_matches_reference_bit_for_bit():
    # every field by float.hex, every DegenerateTriangleError by type and
    # message, on about 36 000 triangles across the six families
    outcomes = Counter()
    for roots in _inellipse_triangles(np.random.default_rng(33), 6000).tolist():
        try:
            c = order_roots(*roots)
        except UndefinedRatioError:
            continue
        got = _inellipse_bits(steiner_inellipse, c)
        assert got == _inellipse_bits(_reference_steiner_inellipse, c), c
        outcomes[got[1] if got[0] is DegenerateTriangleError else "fit"] += 1
    assert outcomes["fit"] > 25_000
    assert outcomes["triangle is numerically collinear"] > 5_000
    assert outcomes["fitted conic is not an ellipse"] > 100
    for roots in ((-1, SQRT3 * 1j, 1), (-1, 0, 1)):
        c = order_roots(*roots)
        assert _inellipse_bits(steiner_inellipse, c) == _inellipse_bits(
            _reference_steiner_inellipse, c
        )


def test_steiner_inellipse_makes_one_svd(monkeypatch):
    # the docstring's "the only LAPACK call": one SVD per fit, none before
    # the collinear gate
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    steiner_inellipse(order_roots(-4 - 1j, -2 + 8j, 4 + 1j))
    assert len(calls) == 1
    with pytest.raises(DegenerateTriangleError, match="collinear"):
        steiner_inellipse(order_roots(-1, 0, 1))
    assert len(calls) == 1


# -- the per-point loops the array evaluation replaced, kept as references;
# real operands of complex operations are spelled as the complex numbers
# CPython before 3.14 turns them into, so the loops mean the same on every
# Python version

_ONE, _THREE = complex(1.0, 0.0), complex(3.0, 0.0)


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
        s2 = _ONE / (_THREE * (_ONE - s1))
        cls = "equilateral" if abs(abs(t) - SQRT3) <= EQ_TOL else "generic"
        rows.append(_reference_row(complex(0.0, float(t)), s1, s2, "boundary", cls, True,
                                   _reference_bounds_ok(s1, s2)))
    return rows


def _assert_same_rows(got, want):
    # every cell equal with its Python type, and every float with the same
    # sign, so with the same bits: signed zeros included
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a == b, (a, b)
        assert [type(x) for x in a] == [type(x) for x in b], (a, b)
        signs = [[math.copysign(1.0, x) for x in row if type(x) is float] for row in (a, b)]
        assert signs[0] == signs[1], (a, b)


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


# points on the EQ_TOL band edge around +-i sqrt(3) where numpy 2's complex
# abs and libm hypot (Python's abs) fall on different sides of the band: the
# four corners (+-x, +-y) of a resolution-2 grid, all on the excluded rays
@pytest.mark.parametrize(
    "x, y, label",
    [
        (3.3564019923055396e-10, 1.7320508085108675, "equilateral"),
        (7.754516702288148e-10, 1.7320508082002841, "equilateral"),
        (5.370326731384364e-10, 1.7320508084124386, "generic"),
        (8.98252371341236e-10, 1.7320508080083572, "generic"),
    ],
)
def test_sweep_classifies_the_tip_band_edge_as_the_scalar_modulus(x, y, label):
    args = ((-x, x), (-y, y), 2)
    rows = rows_of(sweep_w_grid(*args))
    _assert_same_rows(rows, _reference_sweep(*args))
    assert {(r.path, r.classification) for r in rows} == {("skip", label)}


def test_trace_matches_reference_loop():
    # the tips t = -+sqrt(3), and t_min inside, on and past the edge of their EQ_TOL band
    for t_min in (SQRT3, SQRT3 + EQ_TOL / 2, SQRT3 + EQ_TOL, np.nextafter(SQRT3 + EQ_TOL, 2.0)):
        rows = rows_of(trace_boundary(t_min, 100.0, 500))
        _assert_same_rows(rows, _reference_trace(t_min, 100.0, 500))
        tips = {"equilateral"} if abs(t_min - SQRT3) <= EQ_TOL else set()
        assert {r.classification for r in rows} == {"generic"} | tips
        assert all(r.bounds_ok for r in rows)



# -- the row formatters


def _reference_csv_row(row):
    flags = ["" if x is None else ("true" if x else "false") for x in row[8:]]
    return ",".join(["" if x is None else fmt_float(x) for x in row[:6]] + list(row[6:8]) + flags)


def _reference_jsonl_line(row):
    return to_json(dict(zip(CSV_COLUMNS, row)))


def test_row_formatters_match_per_cell_encoding():
    swept = [row for block in sweep_w_grid((-3.0, 3.0), (-3.0, 3.0), 41) for row in block]
    traced = [row for block in trace_boundary(SQRT3, 100.0, 50) for row in block]
    assert (len(swept), len(traced)) == (1681, 100)
    # the skipped rows of the sweep, all four sigma cells None
    assert sum(row[2:6] == (None,) * 4 for row in swept) == 18
    for row in _sample_rows() + swept + traced:
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
