import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ratiolab import (
    SQRT3,
    principal_sqrt,
)
from ratiolab.kernel import _ARRAY, _SCALAR, EQ_TOL, IDENTITY_TOL, _complex, _cquot, _csqrt

finite_reals = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def off_cut(z: complex) -> bool:
    return abs(z.imag) > 1e-9 or z.real > 1e-9


def test_sqrt_positive_real():
    assert principal_sqrt(4) == 2


def test_sqrt_zero():
    assert principal_sqrt(0) == 0


def test_sqrt_of_i_squares_back():
    r = principal_sqrt(1j)
    assert abs(r * r - 1j) < 4e-16
    assert abs(r - (1 + 1j) / math.sqrt(2)) < 1e-15


def test_sqrt_on_cut_takes_upper_limit():
    assert principal_sqrt(-4) == 2j
    # a negative zero imaginary part must not flip the side
    assert principal_sqrt(complex(-4.0, -0.0)) == 2j


def test_sqrt_rejects_nonfinite():
    with pytest.raises(ValueError):
        principal_sqrt(complex(float("nan"), 0))
    with pytest.raises(ValueError):
        principal_sqrt(complex(1, float("inf")))


@given(finite_reals, finite_reals)
def test_sqrt_squares_back(re, im):
    z = complex(re, im)
    r = principal_sqrt(z)
    assert abs(r * r - z) <= 1e-12 * max(abs(z), 1e-300)


@given(finite_reals, finite_reals)
@example(-1.0, -5e-324)
@example(-1.0, -0.0)
@example(-1.0, 5e-324)
def test_sqrt_nonnegative_real_part(re, im):
    # Re r == 0 puts r on the imaginary axis: the upper side for im >= 0
    # (-0.0 included, the upper limit on the cut), the lower side for
    # im < 0, where a real part below the subnormal range rounds to 0
    r = principal_sqrt(complex(re, im))
    assert r.real >= 0.0
    if r.real == 0.0:
        assert r.imag >= 0.0 if im >= 0.0 else r.imag <= 0.0


@given(finite_reals, finite_reals)
def test_sqrt_strictly_positive_off_cut(re, im):
    z = complex(re, im)
    if off_cut(z):
        assert principal_sqrt(z).real > 0.0


@given(finite_reals, finite_reals)
def test_sqrt_conjugation_off_cut(re, im):
    z = complex(re, im)
    if off_cut(z):
        assert principal_sqrt(z.conjugate()) == principal_sqrt(z).conjugate()


@given(
    st.floats(min_value=1e-6, max_value=1e6),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
def test_sqrt_of_square_recovers_right_half_plane(re, im):
    z = complex(re, im)
    assert abs(principal_sqrt(z * z) - z) <= 1e-12 * abs(z)


def test_tolerance_validation():
    assert EQ_TOL == 1e-9
    assert IDENTITY_TOL == 1e-10


def test_sqrt3_constant():
    assert SQRT3 == math.sqrt(3.0)
    assert cmath.isclose(SQRT3 * SQRT3, 3.0, rel_tol=1e-15)


# The array operations of the ops record must reproduce CPython's complex
# arithmetic bit for bit, signs of zero included. A real operand is written
# as the complex number CPython before 3.14 turns it into, as the gate does.


def _bits(z):
    """The raw bits of a complex array: two uint64 words per value."""
    return np.ascontiguousarray(z, dtype=complex).view(np.uint64)


def _random_complex(rng, n):
    """Parts of both signs with magnitudes spread over 1e-30 .. 1e30."""
    parts = rng.standard_normal((2, n)) * 10.0 ** rng.uniform(-30.0, 30.0, (2, n))
    return _complex(*parts)


_PARTS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2e-308, 2.2250738585072014e-308,
          1.0, -1.0, 3.0, -2.5, 1e200, -1.3e200)
# every pair of planted parts: signed zeros, subnormals, DBL_MIN, 1e200
_PLANTED = np.array([complex(x, y) for x in _PARTS for y in _PARTS])


def _operands():
    rng = np.random.default_rng(20261018)
    a, b = _random_complex(rng, 100_000), _random_complex(rng, 100_000)
    pa, pb = np.repeat(_PLANTED, len(_PLANTED)), np.tile(_PLANTED, len(_PLANTED))
    return np.concatenate([a, pa]), np.concatenate([b, pb])


def _cpython(op, a, b):
    """op on Python complex values, row by row; rows whose result CPython
    does not give as a finite complex (overflow, division by zero) are
    dropped from a, b and the result."""
    out, keep = [], []
    for x, y in zip(a.tolist(), b.tolist()):
        try:
            z = op(x, y)
        except ZeroDivisionError:
            keep.append(False)
            continue
        keep.append(cmath.isfinite(z))
        if keep[-1]:
            out.append(z)
    keep = np.array(keep)
    return a[keep], b[keep], np.array(out, dtype=complex)


@pytest.mark.parametrize("name, op, helper", [
    ("quot", lambda x, y: x / y, _cquot),
    ("real-quot", lambda x, y: x / complex(3.0, 0.0), lambda a, b: _cquot(a, complex(3.0, 0.0))),
    ("real-quot-2", lambda x, y: x / complex(2.0, 0.0), lambda a, b: _cquot(a, complex(2.0, 0.0))),
    # a scalar divisor takes one Smith branch: by the imaginary part, and on
    # a tie |Re b| = |Im b| by the real part
    ("imag-quot", lambda x, y: x / complex(0.0, 2.0), lambda a, b: _cquot(a, complex(0.0, 2.0))),
    ("tie-quot", lambda x, y: x / complex(1.0, -1.0), lambda a, b: _cquot(a, complex(1.0, -1.0))),
    ("add", lambda x, y: x + y, lambda a, b: a + b),
    ("sub", lambda x, y: x - y, lambda a, b: a - b),
    ("real-add", lambda x, y: complex(3.0, 0.0) + x, lambda a, b: complex(3.0, 0.0) + a),
])
def test_binary_helpers_match_cpython_bit_for_bit(name, op, helper):
    a, b, expected = _cpython(op, *_operands())
    assert len(expected) > 100_000
    with np.errstate(all="ignore"):
        got = helper(a, b)
    assert np.array_equal(_bits(got), _bits(expected)), name


def test_quotient_by_a_zero_scalar_gives_nan_rows():
    # as an array divisor b == 0 does, where CPython raises ZeroDivisionError
    a, _ = _operands()
    for b in (0j, complex(-0.0, 0.0), np.zeros(len(a), dtype=complex)):
        with np.errstate(all="ignore"):
            q = _cquot(a, b)
        assert q.shape == a.shape and np.isnan(q.real).all() and np.isnan(q.imag).all()


def test_quotient_takes_both_smith_branches():
    # the planted divisors include pure real, pure imaginary and |re| = |im|
    # (a tie divides by the real part); random ones take both branches
    _, b = _operands()
    by_imag = np.abs(b.real) < np.abs(b.imag)
    assert by_imag.any() and (~by_imag & (b != 0)).any()
    assert ((b.real == 0) & (b.imag != 0)).any() and ((b.imag == 0) & (b.real != 0)).any()
    assert (np.abs(b.real) == np.abs(b.imag)).any()


def test_abs_and_sqrt_match_cpython_bit_for_bit():
    a, _ = _operands()
    values = a.tolist()
    assert _ARRAY.sqrt is _csqrt and _ARRAY.quot is _cquot and _SCALAR.quot(1j, 2) == 0.5j
    assert np.array_equal(_ARRAY.modulus(a).view(np.uint64),
                          np.array([_SCALAR.modulus(z) for z in values]).view(np.uint64))
    assert np.array_equal(_bits(_csqrt(a)), _bits([cmath.sqrt(z) for z in values]))
    # cmath.sqrt's scaled path: both parts below DBL_MIN, zero excepted
    tiny = (np.abs(a.real) < 2.2250738585072014e-308) & (np.abs(a.imag) < 2.2250738585072014e-308)
    assert (tiny & (a != 0)).sum() >= 20
    # and an array without such rows, which skips that path
    rest = a[~tiny]
    assert np.array_equal(_bits(_csqrt(rest)), _bits([cmath.sqrt(z) for z in rest.tolist()]))
    # the planted parts against each other: the Smith quotient where CPython
    # gives a finite quotient, and the root
    pa, pb, expected = _cpython(lambda x, y: x / y, np.repeat(_PLANTED, len(_PLANTED)),
                                np.tile(_PLANTED, len(_PLANTED)))
    with np.errstate(all="ignore"):
        assert np.array_equal(_bits(_cquot(pa, pb)), _bits(expected))
    roots = [cmath.sqrt(z) for z in _PLANTED.tolist()]
    assert np.array_equal(_bits(_csqrt(_PLANTED)), _bits(roots))
    # where hypot overflows, abs raises; the scalar modulus gives inf, as np.hypot
    big = complex(1.3e308, -1.3e308)
    with pytest.raises(OverflowError):
        abs(big)
    with np.errstate(over="ignore"):
        assert _SCALAR.modulus(big) == _ARRAY.modulus(np.array([big]))[0] == math.inf


def test_numpy_complex_division_is_not_bit_faithful():
    # numpy divides by multiplying with a reciprocal, so its quotients, by a
    # complex or by 3.0, are not CPython's; that is why the array record
    # divides with _cquot. Its products may differ as well (they do with
    # numpy 2.4's AVX-512 loops), which is why the gate spells them out on
    # parts; that depends on the loops the CPU selects, so it is not asserted
    rng = np.random.default_rng(20261018)
    a, b = _random_complex(rng, 10_000), _random_complex(rng, 10_000)
    quotients = [x / y for x, y in zip(a.tolist(), b.tolist())]
    thirds = [x / complex(3.0, 0.0) for x in a.tolist()]
    assert (_bits(a / b) != _bits(quotients)).any()
    assert (_bits(a / 3.0) != _bits(thirds)).any()
