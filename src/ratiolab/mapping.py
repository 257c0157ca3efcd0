"""Datasets over the w-plane and the rays, plus the inellipse oracle.

sweep_w_grid and trace_boundary are generators: they evaluate their points
as numpy arrays in blocks of at most 4096 (closed_forms_array or the ray
formula for the ratios) and hand w, sigma1 and sigma2 to _rows, the one row
builder, which adds bounds_mask for the bound catalog and the &/| predicates
is_reachable and _classify_w that also serve single points, and yields the
block as a list of row tuples in CSV_COLUMNS order. The sweep runs the
closed forms on its ray points (_on_rays) too; _rows drops those values
and leaves the sigma and bounds_ok cells of a skip row None. emit_dataset
writes block after block, so memory stays flat in the grid size. Every
cell is what the scalar functions give, bit for bit.

The midpoint inellipse of a noncollinear root triangle is fitted purely
geometrically: six homogeneous linear constraints (the conic passes through
each side midpoint and its gradient there is parallel to the side normal)
determine the conic coefficients up to scale, as the null vector of one SVD.
The reduction after it is closed form on Python floats: one eigenvalue of
the 2x2 quadratic part gives the semi-axes, one complex square root the foci.
The foci independently reproduce the critical points, which is what makes
this an oracle for the ratio machinery rather than a restatement of it.

Naming note: the excluded vertical rays {Re w = 0, |Im w| >= sqrt(3)} in the
w-plane and the inellipse of a root triangle are unrelated objects; code and
docs say "excluded rays" and "inellipse" to keep them apart.
"""

from __future__ import annotations

import cmath
import itertools
import math
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .cubic import MAX_ROOT_MAGNITUDE, Configuration, OrderedCubic
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
    if not isinstance(resolution, (int, np.integer)) or resolution < 2:
        raise BadRangeError(f"resolution must be an integer of at least 2, got {resolution!r}")

    re_axis = np.linspace(re_lo, re_hi, resolution)
    im_axis = np.linspace(im_lo, im_hi, resolution)
    for start in range(0, resolution * resolution, _BLOCK):
        k = np.arange(start, min(start + _BLOCK, resolution * resolution))
        w = _ARRAY.complex(re_axis[k // resolution], im_axis[k % resolution])
        skip = _on_rays(w)
        yield _rows(w, *closed_forms_array(w), np.where(skip, "skip", "interior"), skip)


def trace_boundary(t_min: float, t_max: float, steps: int) -> Iterator[list[tuple]]:
    """Sample the rays at w = i t for t in -[t_max, t_min] and [t_min, t_max].

    Uses the upper-side ray formula for sigma1 and the identity
    (1 - sigma1) sigma2 = 1/3 for sigma2; t ascends through both blocks.
    Yields blocks of at most _BLOCK rows in CSV_COLUMNS order. t_max must
    not exceed MAX_ROOT_MAGNITUDE.
    """
    if not (SQRT3 <= t_min < t_max <= MAX_ROOT_MAGNITUDE):
        raise BadRangeError(
            f"need sqrt(3) <= t_min < t_max <= {MAX_ROOT_MAGNITUDE:.0e}, got [{t_min}, {t_max}]"
        )
    if not isinstance(steps, (int, np.integer)) or steps < 2:
        raise BadRangeError(f"steps must be an integer of at least 2, got {steps!r}")
    ts = np.concatenate(
        [-np.linspace(t_max, t_min, steps), np.linspace(t_min, t_max, steps)]
    )
    for start in range(0, ts.size, _BLOCK):
        t = ts[start : start + _BLOCK]
        s1 = boundary_sigma1(t)
        yield _rows(_ARRAY.complex(0.0, t), s1, _ray_sigma2(_ARRAY, s1), "boundary",
                    np.zeros(t.size, bool))


def _rows(w, s1, s2, path, skip) -> list[tuple]:
    """One block of rows in CSV_COLUMNS order from the points w, their
    ratios s1 and s2 and their path (an array or one value for every row).
    Where skip holds, the four sigma cells and bounds_ok are None. Cells
    come out as Python floats, bools, strings and None."""
    columns = (w.real, w.imag, s1.real, s1.imag, s2.real, s2.imag, path,
               _W_CLASSES[_classify_w(w)], is_reachable(w), bounds_mask(s1, s2))
    cells = np.empty((len(columns), w.size), dtype=object)
    for i, column in enumerate(columns):
        cells[i] = column
    cells[2:6, skip] = cells[9, skip] = None
    return list(zip(*cells.tolist()))


def steiner_inellipse(c: OrderedCubic) -> InEllipse:
    """Fit the midpoint inellipse of the root triangle (geometric route).

    The conic A x^2 + B xy + C y^2 + D x + E y + F = 0 is the SVD null
    vector of the six constraint rows, the only LAPACK call. With det the
    determinant of its quadratic part, k0 its value at the center and lam
    the eigenvalue of larger magnitude, it is an ellipse iff det > 0 and
    -k0/lam > 0. Then semi_minor^2 = -k0/lam and, as the eigenvalues
    multiply to det, semi_major^2 = -k0 lam/det. The foci are center -+ f,
    one complex root: the focal vector at the major axis angle phi has
    f^2 = (a^2 - b^2) e^(2i phi) = k0 ((A - C) + iB)/det; they are sorted by
    real part (then imaginary part), as the critical points are labeled.
    Raises DegenerateTriangleError when the gate calls the triangle
    collinear (c.collinear) or the fitted conic is not an ellipse.
    """
    if c.collinear:
        raise DegenerateTriangleError("triangle is numerically collinear")
    w1, w2, w3 = c.w1, c.w2, c.w3
    ctr = (w1 + w2 + w3) / 3.0
    d1, d2, d3 = w1 - ctr, w2 - ctr, w3 - ctr
    scale = max(abs(d1), abs(d2), abs(d3))
    p1, p2, p3 = d1 / scale, d2 / scale, d3 / scale
    m1, m2, m3 = (p1 + p2) / 2.0, (p2 + p3) / 2.0, (p3 + p1) / 2.0
    x1, y1, u1, v1 = m1.real, m1.imag, p2.real - p1.real, p2.imag - p1.imag
    x2, y2, u2, v2 = m2.real, m2.imag, p3.real - p2.real, p3.imag - p2.imag
    x3, y3, u3, v3 = m3.real, m3.imag, p1.real - p3.real, p1.imag - p3.imag
    A, B, C, D, E, F = np.linalg.svd(np.array((
        x1 * x1, x1 * y1, y1 * y1, x1, y1, 1.0,
        2.0 * x1 * u1, y1 * u1 + x1 * v1, 2.0 * y1 * v1, u1, v1, 0.0,
        x2 * x2, x2 * y2, y2 * y2, x2, y2, 1.0,
        2.0 * x2 * u2, y2 * u2 + x2 * v2, 2.0 * y2 * v2, u2, v2, 0.0,
        x3 * x3, x3 * y3, y3 * y3, x3, y3, 1.0,
        2.0 * x3 * u3, y3 * u3 + x3 * v3, 2.0 * y3 * v3, u3, v3, 0.0,
    ), float).reshape(6, 6))[2][-1].tolist()
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
    fa, fb = center - focal, center + focal
    f1, f2 = (fb, fa) if (fb.real, fb.imag) < (fa.real, fa.imag) else (fa, fb)
    semi_major = math.sqrt(-k0 * lam / det) * scale
    return InEllipse(center, f1, f2, semi_major, math.sqrt(ax2_minor) * scale,
                     (ctr + scale * m1, ctr + scale * m2, ctr + scale * m3))


def ratio_angles(c: OrderedCubic) -> tuple[float, float]:
    """Signed angles (radians) at w1 from side w1->w2 to w1->z1, and at w2
    from side w2->w3 to w2->z2: the phases of (z1 - w1) conj(w2 - w1) and
    (z2 - w2) conj(w3 - w2), equal to (arg sigma1, arg sigma2)."""
    th1 = cmath.phase((c.z1 - c.w1) * (c.w2 - c.w1).conjugate())
    return th1, cmath.phase((c.z2 - c.w2) * (c.w3 - c.w2).conjugate())


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
