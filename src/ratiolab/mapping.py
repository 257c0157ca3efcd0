"""Datasets over the w-plane and the rays, plus the inellipse oracle.

sweep_w_grid and trace_boundary are generators: they evaluate their points
as numpy arrays in blocks of at most 4096 (closed_forms_array or the ray
formula for the ratios, bounds_mask for the bound catalog, and the &/|
predicates _on_rays, is_reachable and _classify_w that also serve single
points) and yield each block as a list of row tuples in CSV_COLUMNS order.
emit_dataset writes block after block, so memory stays flat in the grid
size. Every cell is what the scalar functions give, bit for bit.

The midpoint inellipse of a noncollinear root triangle is fitted purely
geometrically: six homogeneous linear constraints (the conic passes through
each side midpoint and its gradient there is parallel to the side normal)
determine the conic coefficients up to scale, as the null vector of one SVD;
center, axes, and foci then come from the 2x2 quadratic part in closed form
on Python floats. The foci independently reproduce the critical points,
which is what makes this an oracle for the ratio machinery rather than a
restatement of it.

Naming note: the excluded vertical rays {Re w = 0, |Im w| >= sqrt(3)} in the
w-plane and the inellipse of a root triangle are unrelated objects; code and
docs say "excluded rays" and "inellipse" to keep them apart.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .cubic import MAX_ROOT_MAGNITUDE, Configuration, OrderedCubic, classify_configuration
from .errors import BadRangeError, DegenerateTriangleError
from .kernel import _ARRAY, EQ_TOL, SQRT3, _on_rays
from .ratios import _ray_sigma2, boundary_sigma1, closed_forms_array
from .records import CSV_COLUMNS, csv_row, jsonl_line
from .theorems import bounds_mask

__all__ = [
    "InEllipse",
    "sweep_w_grid",
    "trace_boundary",
    "steiner_inellipse",
    "ratio_angles",
    "emit_dataset",
    "is_reachable",
]


class InEllipse(NamedTuple):
    """Midpoint inellipse: tangent to the triangle at all three side midpoints."""

    center: complex
    focus1: complex
    focus2: complex
    semi_major: float
    semi_minor: float
    tangency_points: tuple[complex, complex, complex]


def is_reachable(w):
    """Whether some admissible pair realizes this w; elementwise for a
    complex array.

    Solvability of the ordering constraints reduces to: any w off the real
    axis works, and a real w needs |Re w| < 1 (w = w2/w3 with |Re w2| < Re w3).
    """
    return (abs(w.imag) > EQ_TOL) | (abs(w.real) < 1.0 - EQ_TOL)


#: Labels by the code _classify_w returns; one shared object per label.
_W_CLASSES = np.array(
    [
        Configuration.GENERIC.value,
        Configuration.COLLINEAR.value,
        Configuration.EQUILATERAL.value,
    ],
    dtype=object,
)

#: Points per block of the array evaluation in sweep_w_grid/trace_boundary.
_BLOCK = 4096


def _classify_w(w):
    """Index into _W_CLASSES: 2 at the equilateral points +-i sqrt(3), 1 on
    the real axis, 0 elsewhere (the two bands are disjoint); elementwise for
    a complex array."""
    mod = _ARRAY.modulus  # libm hypot, as abs forms it on a Python complex
    equilateral = (mod(w - SQRT3 * 1j) <= EQ_TOL) | (mod(w + SQRT3 * 1j) <= EQ_TOL)
    return 2 * equilateral + (abs(w.imag) <= EQ_TOL)


def sweep_w_grid(
    re_range: tuple[float, float], im_range: tuple[float, float], resolution: int
) -> Iterator[list[tuple]]:
    """Evaluate f and g on a rectangular grid; ray points get a skip row.

    Yields blocks of at most _BLOCK rows in CSV_COLUMNS order. Grid order is
    row-major: Re w varies in the outer loop, Im w in the inner one, both
    ascending. Both ranges must lie within MAX_ROOT_MAGNITUDE of 0, beyond
    which 3 + w*w overflows.
    """
    re_lo, re_hi = float(re_range[0]), float(re_range[1])
    im_lo, im_hi = float(im_range[0]), float(im_range[1])
    for name, lo, hi in (("re_range", re_lo, re_hi), ("im_range", im_lo, im_hi)):
        if not (-MAX_ROOT_MAGNITUDE <= lo < hi <= MAX_ROOT_MAGNITUDE):
            raise BadRangeError(
                f"bad {name} {(lo, hi)!r}: need lo < hi within +-{MAX_ROOT_MAGNITUDE:.0e}"
            )
    if resolution < 2:
        raise BadRangeError("resolution must be at least 2")

    re_axis = np.linspace(re_lo, re_hi, resolution)
    im_axis = np.linspace(im_lo, im_hi, resolution)
    for start in range(0, resolution * resolution, _BLOCK):
        k = np.arange(start, min(start + _BLOCK, resolution * resolution))
        w = np.empty(k.size, dtype=complex)
        w.real = re_axis[k // resolution]
        w.imag = im_axis[k % resolution]
        skip = _on_rays(w)
        live = ~skip
        s1 = np.full(k.size, np.nan, dtype=complex)
        s2 = s1.copy()
        s1[live], s2[live] = closed_forms_array(w[live])
        yield _rows(
            w.real,
            w.imag,
            *(np.where(skip, None, x) for x in (s1.real, s1.imag, s2.real, s2.imag)),
            np.where(skip, "skip", "interior"),
            _W_CLASSES[_classify_w(w)],
            is_reachable(w),
            np.where(skip, None, bounds_mask(s1, s2)),
        )


def trace_boundary(t_min: float, t_max: float, steps: int) -> Iterator[list[tuple]]:
    """Sample the rays at w = i t for t in -[t_max, t_min] and [t_min, t_max].

    Uses the upper-side ray formula for sigma1 and the identity
    (1 - sigma1) sigma2 = 1/3 for sigma2; t ascends through both blocks.
    Yields blocks of at most _BLOCK rows in CSV_COLUMNS order. t_max must
    not exceed MAX_ROOT_MAGNITUDE.
    """
    if not (SQRT3 - EQ_TOL <= t_min < t_max <= MAX_ROOT_MAGNITUDE):
        raise BadRangeError(
            f"need sqrt(3) <= t_min < t_max <= {MAX_ROOT_MAGNITUDE:.0e}, got [{t_min}, {t_max}]"
        )
    if steps < 2:
        raise BadRangeError("steps must be at least 2")
    ts = np.concatenate(
        [-np.linspace(t_max, t_min, steps), np.linspace(t_min, t_max, steps)]
    )
    for start in range(0, ts.size, _BLOCK):
        t = ts[start : start + _BLOCK]
        s1 = boundary_sigma1(t)
        s2 = _ray_sigma2(_ARRAY, s1)
        yield _rows(
            np.zeros(t.size),
            t,
            s1.real,
            s1.imag,
            s2.real,
            s2.imag,
            "boundary",
            _W_CLASSES[2 * (abs(abs(t) - SQRT3) <= EQ_TOL)],
            True,
            bounds_mask(s1, s2),
        )


def _rows(*columns) -> list[tuple]:
    """One block of rows from the ten columns in CSV_COLUMNS order. The
    first column is an array that sets the row count; a later one may be a
    single value for every row. Cells come out as Python floats, bools,
    strings and None."""
    cells = np.empty((len(columns), len(columns[0])), dtype=object)
    for i, column in enumerate(columns):
        cells[i] = column
    return list(zip(*cells.tolist()))


def steiner_inellipse(c: OrderedCubic) -> InEllipse:
    """Fit the midpoint inellipse of the root triangle (geometric route).

    The conic is the SVD null vector of the six constraint rows, the only
    LAPACK call; center, axes and foci follow in closed form with math.
    Raises DegenerateTriangleError when classify_configuration calls the
    triangle collinear or the fitted conic is not a centered ellipse. The
    returned foci are sorted by real part (then imaginary part) to match
    the critical point labeling convention.
    """
    if classify_configuration(c) is Configuration.COLLINEAR:
        raise DegenerateTriangleError("triangle is numerically collinear")
    verts = [c.w1, c.w2, c.w3]

    ctr = (c.w1 + c.w2 + c.w3) / 3.0
    scale = max(abs(v - ctr) for v in verts)
    vs = [(v - ctr) / scale for v in verts]

    rows = []
    midpoints = []
    for k in range(3):
        p = vs[k]
        q = vs[(k + 1) % 3]
        m = (p + q) / 2.0
        midpoints.append(m)
        d = q - p
        x, y = m.real, m.imag
        dx, dy = d.real, d.imag
        rows.append([x * x, x * y, y * y, x, y, 1.0])
        rows.append([2.0 * x * dx, y * dx + x * dy, 2.0 * y * dy, dx, dy, 0.0])
    _, _, vt = np.linalg.svd(np.array(rows))
    A, B, C, D, E, F = vt[-1].tolist()

    # The quadratic part [[A, B/2], [B/2, C]] in closed form: the center by
    # Cramer's rule, the eigenvalues mean +- h and the squared axes
    # -k0/lambda. The major axis belongs to the eigenvalue of smaller
    # magnitude; its eigenvector is at theta for mean + h, theta + pi/2 for
    # mean - h. A zero eigenvalue (a parabola) counts as an infinite axis.
    det = A * C - B * B / 4.0
    if det == 0.0:
        raise DegenerateTriangleError("conic has no center")
    cx = (B * E / 4.0 - C * D / 2.0) / det
    cy = (B * D / 4.0 - A * E / 2.0) / det
    k0 = F + (D / 2.0) * cx + (E / 2.0) * cy
    mean = (A + C) / 2.0
    h = math.hypot((A - C) / 2.0, B / 2.0)
    lam_major, lam_minor = (mean - h, mean + h) if mean > 0.0 else (mean + h, mean - h)
    ax2_major = -k0 / lam_major if lam_major else math.inf
    ax2_minor = -k0 / lam_minor
    if not (0.0 < ax2_major < math.inf and 0.0 < ax2_minor < math.inf):
        raise DegenerateTriangleError("fitted conic is not an ellipse")
    semi_major = math.sqrt(ax2_major)
    semi_minor = math.sqrt(ax2_minor)
    theta = 0.5 * math.atan2(B, A - C) + (math.pi / 2.0 if mean > 0.0 else 0.0)
    major_dir = complex(math.cos(theta), math.sin(theta))
    focal = math.sqrt(max(semi_major**2 - semi_minor**2, 0.0))

    center = ctr + scale * complex(cx, cy)
    fa = center + scale * focal * major_dir
    fb = center - scale * focal * major_dir
    f1, f2 = sorted((fa, fb), key=lambda z: (z.real, z.imag))
    tangency = tuple(ctr + scale * m for m in midpoints)
    return InEllipse(
        center=center,
        focus1=f1,
        focus2=f2,
        semi_major=semi_major * scale,
        semi_minor=semi_minor * scale,
        tangency_points=tangency,
    )


def ratio_angles(c: OrderedCubic) -> tuple[float, float]:
    """Signed angles (radians) at w1 from side w1->w2 to w1->z1, and at w2
    from side w2->w3 to w2->z2. Computed from dot/cross products; equal to
    (arg sigma1, arg sigma2)."""
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


def emit_dataset(blocks: Iterable[list[tuple]], destination, fmt: str = "csv") -> int:
    """Write blocks of rows as CSV (with header) or JSONL; returns the row
    count.

    The first block is made before the file is opened, so a range error
    raised by sweep_w_grid or trace_boundary leaves an existing file as it
    was. Floats carry 17 significant digits so a reader recovers them
    exactly.
    """
    fmt = fmt.lower()
    if fmt not in ("csv", "jsonl"):
        raise BadRangeError(f"format must be csv or jsonl, got {fmt!r}")
    encode = csv_row if fmt == "csv" else jsonl_line
    blocks = iter(blocks)
    first = next(blocks, [])
    count = 0
    with open(destination, "w", encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            fh.write(",".join(CSV_COLUMNS) + "\n")
        for block in itertools.chain([first], blocks):
            fh.write("".join([encode(row) + "\n" for row in block]))
            count += len(block)
    return count
