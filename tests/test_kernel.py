import cmath
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ratiolab import (
    SQRT3,
    principal_sqrt,
)
from ratiolab.kernel import EQ_TOL, IDENTITY_TOL

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
