import inspect
import math

import numpy as np
import pytest

from ratiolab import SQRT3, UndefinedRatioError, assess_admissibility, normalize, order_roots
from ratiolab.sampling import (
    _BLOCK,
    sample_collinear,
    sample_equilateral,
    sample_hyperbolic,
    sample_near_equilateral,
    sample_ordered_cubics,
)

N = 20_000


@pytest.fixture(scope="module")
def batch():
    """(AdmissibilityReport of the normalized pair, w) for each sample."""
    out = []
    for c in sample_ordered_cubics(N, np.random.default_rng([1729, 1])):
        nc = normalize(c)
        out.append((assess_admissibility(nc.w2n, nc.w3n), nc.w))
    return out


def test_same_seed_same_sequence():
    # identical seeds give identical configurations, and a shorter run is a
    # prefix of a longer one: blocks do not depend on n
    a = list(sample_ordered_cubics(3000, np.random.default_rng(5)))
    b = list(sample_ordered_cubics(3000, np.random.default_rng(5)))
    c = list(sample_ordered_cubics(500, np.random.default_rng(5)))
    assert a == b
    assert c == a[:500]
    assert a != list(sample_ordered_cubics(3000, np.random.default_rng(6)))


@pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7])
def test_yields_exactly_n(n):
    assert sum(1 for _ in sample_ordered_cubics(n, np.random.default_rng(n))) == n


def test_every_sample_readmitted(batch):
    # the yielded configuration itself passes the gate: ray samples on the
    # rays (Re w = 0, |Im w| > sqrt(3)), interior samples off them
    assert len(batch) == N
    for rep, w in batch:
        assert rep.admissible, rep.reasons
        if rep.on_boundary:
            assert abs(w.imag) > SQRT3


def test_ray_share(batch):
    rays = sum(rep.on_boundary for rep, _ in batch)
    sigma = math.sqrt(0.2 * 0.8 / N)
    assert abs(rays / N - 0.2) <= 4 * sigma


def test_ray_samples_cover_t_range(batch):
    # |t| is log-uniform on [sqrt(3)(1 + 1e-6), 1e3]: both ends are reached
    ts = [abs(w.imag) for rep, w in batch if rep.on_boundary]
    assert max(ts) > 500.0
    assert min(ts) < 1.8


# Reference loops for the four scalar samplers: one rejection loop each
# around order_roots, drawing in the samplers' order. The samplers must give
# the same configurations from the same draws.


def _reference_hyperbolic(n, rng):
    produced = 0
    while produced < n:
        xs = np.sort(rng.uniform(-10.0, 10.0, size=3))
        if xs[1] - xs[0] < 1e-3 or xs[2] - xs[1] < 1e-3:
            continue
        s = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        off = rng.uniform(-5.0, 5.0) * s
        try:
            c = order_roots(xs[0] * s + off, xs[1] * s + off, xs[2] * s + off)
        except UndefinedRatioError:
            continue
        produced += 1
        yield c


def _reference_collinear(n, rng):
    produced = 0
    while produced < n:
        xs = np.sort(rng.uniform(-5.0, 5.0, size=3))
        if xs[1] - xs[0] < 1e-3 or xs[2] - xs[1] < 1e-3:
            continue
        ang = rng.uniform(-1.2, 1.2)
        d = complex(math.cos(ang), math.sin(ang))
        off = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        try:
            c = order_roots(off + d * xs[0], off + d * xs[1], off + d * xs[2])
        except UndefinedRatioError:
            continue
        produced += 1
        yield c


def _reference_equilateral_base(rng):
    re3 = rng.uniform(0.5, 5.0)
    im3 = rng.uniform(-1.0, 1.0) * re3 / (2.0 * SQRT3)
    w3 = complex(re3, im3)
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    return w3, sign * SQRT3 * 1j * w3


def _reference_equilateral(n, rng):
    produced = 0
    while produced < n:
        w3, w2 = _reference_equilateral_base(rng)
        off = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        try:
            c = order_roots(-w3 + off, w2 + off, w3 + off)
        except UndefinedRatioError:
            continue
        produced += 1
        yield c


def _reference_near_equilateral(n, rng):
    produced = 0
    while produced < n:
        w3, w2 = _reference_equilateral_base(rng)
        delta = math.exp(rng.uniform(math.log(1e-4), math.log(1e-1)))
        w2 = w2 + delta * w3
        off = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        try:
            c = order_roots(-w3 + off, w2 + off, w3 + off)
        except UndefinedRatioError:
            continue
        produced += 1
        yield c


_REFERENCES = {
    "hyperbolic": (sample_hyperbolic, _reference_hyperbolic),
    "collinear": (sample_collinear, _reference_collinear),
    "equilateral": (sample_equilateral, _reference_equilateral),
    "near_equilateral": (sample_near_equilateral, _reference_near_equilateral),
}


@pytest.mark.parametrize("seed", [0, 1729, 2026])
@pytest.mark.parametrize("n", [0, 1, 7, 200])
@pytest.mark.parametrize("name", sorted(_REFERENCES))
def test_scalar_samplers_match_reference_loops(name, n, seed):
    # the same configurations from the same draws: the generator left in
    # the same state
    sampler, reference = _REFERENCES[name]
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert list(sampler(n, rng)) == list(reference(n, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


_SAMPLERS = [sample_ordered_cubics] + [s for s, _ in _REFERENCES.values()]


@pytest.mark.parametrize("sampler", _SAMPLERS)
@pytest.mark.parametrize("n", [0, -1])
def test_no_draws_without_samples(sampler, n):
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    assert list(sampler(n, rng)) == []
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("sampler", _SAMPLERS)
def test_samplers_are_generator_functions(sampler):
    # a sampler draws nothing until it is iterated, and the benchmark's
    # tracer counts its items and draws through the generator protocol
    assert inspect.isgeneratorfunction(sampler)
