import inspect
import math

import numpy as np
import pytest

from ratiolab import (
    SQRT3,
    UndefinedRatioError,
    assess_admissibility,
    normalize,
    order_roots,
    ratios_direct,
)
from ratiolab.cubic import GATE_TABLE
from ratiolab.errors import BadParameterError
from ratiolab.ratios import ratios_direct_array
from ratiolab.sampling import (
    _BLOCK,
    _admissible_blocks,
    _candidate_block,
    _collinear_roots,
    _equilateral_roots,
    _hyperbolic_roots,
    sample_collinear,
    sample_equilateral,
    sample_hyperbolic,
    sample_near_equilateral,
    sample_ordered_cubics,
)

N = 20_000
_SAMPLERS = [
    sample_ordered_cubics,
    sample_hyperbolic,
    sample_collinear,
    sample_equilateral,
    sample_near_equilateral,
]


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
    for sampler in _SAMPLERS:
        a = list(sampler(3000, np.random.default_rng(5)))
        b = list(sampler(3000, np.random.default_rng(5)))
        c = list(sampler(500, np.random.default_rng(5)))
        assert a == b, sampler.__name__
        assert c == a[:500], sampler.__name__
        assert a != list(sampler(3000, np.random.default_rng(6))), sampler.__name__


@pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7])
def test_yields_exactly_n(n):
    for sampler in _SAMPLERS:
        assert sum(1 for _ in sampler(n, np.random.default_rng(n))) == n, sampler.__name__


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


def test_pair_gap_keeps_w_off_plus_minus_one():
    # |w2 +- w3| >= 1e-4 with |w3| < 10 sqrt(2) keeps w = w2 / w3 over 7e-6
    # from +-1, and ray draws have |w -+ 1| >= 2: no separate band is needed
    rng = np.random.default_rng(7)
    for _ in range(1000):
        roots, _ = _candidate_block(rng)
        r1, r2, r3 = roots.T
        w = (2.0 * r2 - r1 - r3) / (r3 - r1)
        assert np.all(np.abs(w - 1.0) >= 1e-6) and np.all(np.abs(w + 1.0) >= 1e-6)


def _reference_ordered_cubics(n, rng):
    """sample_ordered_cubics as a scalar loop: each candidate of a block
    through order_roots, normalize and assess_admissibility, stopping as
    soon as n configurations are out."""
    produced = 0
    while produced < n:
        roots, rays = _candidate_block(rng)
        for (r1, r2, r3), ray in zip(roots.tolist(), rays.tolist()):
            try:
                c = order_roots(r1, r2, r3)
            except UndefinedRatioError:
                continue
            nc = normalize(c)
            report = assess_admissibility(nc.w2n, nc.w3n)
            if not report.admissible or report.on_boundary != ray:
                continue
            yield c
            produced += 1
            if produced == n:
                return


@pytest.mark.parametrize("seed", [0, 1729, 2026])
@pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, N])
def test_ordered_cubics_match_scalar_gate_loop(n, seed):
    # the array gate keeps the configurations the scalar gate keeps, with
    # the same bits (repr tells every finite float apart, signed zeros too),
    # and draws the same blocks
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = list(_reference_ordered_cubics(n, ref_rng))
    assert list(map(repr, sample_ordered_cubics(n, rng))) == list(map(repr, expected))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # the T1-T3 pass's GATE_TABLE blocks hold these cubics' fields, and
    # their ratios are the cubics' scalar ratios_direct, bit for bit
    table = np.concatenate([np.empty(0, GATE_TABLE), *_admissible_blocks(n, np.random.default_rng(seed))])
    assert list(map(repr, table.tolist())) == [repr(tuple(c)) for c in expected]
    ref = [(rv.sigma1, rv.sigma2) for rv in map(ratios_direct, expected)]
    sigma = np.stack(ratios_direct_array(table), axis=1)
    assert np.array_equal(sigma.view(np.uint64), np.array(ref, dtype=complex).reshape(n, 2).view(np.uint64))


# The four samplers' candidate blocks through the scalar gate, one row at a
# time: the array gate must keep the same rows with the same bits.

_CANDIDATES = {
    "hyperbolic": (sample_hyperbolic, _hyperbolic_roots),
    "collinear": (sample_collinear, _collinear_roots),
    "equilateral": (sample_equilateral, lambda rng: _equilateral_roots(rng, near=False)),
    "near_equilateral": (sample_near_equilateral, lambda rng: _equilateral_roots(rng, near=True)),
}


def _reference_gate_loop(n, rng, candidates):
    """A sampler as a scalar loop: order_roots on each row of the same
    candidate blocks, stopping as soon as n configurations are out."""
    produced = 0
    while produced < n:
        for r1, r2, r3 in candidates(rng).tolist():
            try:
                c = order_roots(r1, r2, r3)
            except UndefinedRatioError:
                continue
            yield c
            produced += 1
            if produced == n:
                return


@pytest.mark.parametrize("seed", [0, 1729, 2026])
@pytest.mark.parametrize("n", [0, 1, 7, 200, _BLOCK + 1])
@pytest.mark.parametrize("name", sorted(_CANDIDATES))
def test_scalar_samplers_match_reference_loops(name, n, seed):
    # the same configurations, bit for bit (repr tells every finite float
    # apart, signed zeros too), from the same candidate blocks: the
    # generator left in the same state
    sampler, candidates = _CANDIDATES[name]
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = list(map(repr, _reference_gate_loop(n, ref_rng, candidates)))
    assert list(map(repr, sampler(n, rng))) == expected
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# The per-triple loops the four samplers replaced, drawing one candidate at a
# time with a rejection loop around order_roots. They are kept as the
# reference law of each sampler.


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


_PER_TRIPLE = {
    "hyperbolic": _reference_hyperbolic,
    "collinear": _reference_collinear,
    "equilateral": _reference_equilateral,
    "near_equilateral": _reference_near_equilateral,
}


def _ks_statistic(a, b):
    """The two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a, b = np.sort(a), np.sort(b)
    x = np.concatenate((a, b))
    return np.max(np.abs(np.searchsorted(a, x, side="right") / len(a)
                         - np.searchsorted(b, x, side="right") / len(b)))


def _coordinates(cubics):
    """Re and Im of w1, w2, w3 and of the shape w = w2n / w3n, and the
    direction and log length of w3 - w1, one column each."""
    z = np.array([(c.w1, c.w2, c.w3, normalize(c).w) for c in cubics], dtype=complex)
    side = z[:, 2] - z[:, 0]
    return np.column_stack((z.real, z.imag, np.angle(side), np.log(np.abs(side))))


@pytest.mark.parametrize("name", sorted(_PER_TRIPLE))
def test_samplers_keep_the_per_triple_law(name):
    # the block draw changes the draw order but not the law: on every
    # coordinate the sampler randomizes, 20 000 draws of the block sampler
    # and 20 000 of the per-triple loop pass a two-sample KS test at the
    # 0.1% level. Over some 35 coordinates in all, a few seeds in a hundred
    # give a false alarm, so the seeds are fixed.
    sampler, _ = _CANDIDATES[name]
    new = _coordinates(sampler(N, np.random.default_rng([1729, 1])))
    old = _coordinates(_PER_TRIPLE[name](N, np.random.default_rng([1729, 2])))
    varied = np.ptp(old, axis=0) > 0
    assert np.array_equal(varied, np.ptp(new, axis=0) > 0)
    bound = 1.95 * math.sqrt(2 / N)
    for k in np.flatnonzero(varied):
        assert _ks_statistic(new[:, k], old[:, k]) < bound, k


@pytest.mark.parametrize("sampler", _SAMPLERS)
@pytest.mark.parametrize("n", [0, -1])
def test_no_draws_without_samples(sampler, n):
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    assert list(sampler(n, rng)) == []
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("sampler", _SAMPLERS)
@pytest.mark.parametrize("n", [10.0, "5"])
def test_samplers_reject_a_count_that_is_not_an_integer(sampler, n):
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(BadParameterError, match="integer"):
        list(sampler(n, rng))
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("sampler", _SAMPLERS)
def test_samplers_take_a_numpy_integer_count(sampler):
    samples = list(sampler(np.int64(3), np.random.default_rng(3)))
    assert samples == list(sampler(3, np.random.default_rng(3)))
    assert len(samples) == 3


@pytest.mark.parametrize("sampler", _SAMPLERS)
def test_samplers_are_generator_functions(sampler):
    # a sampler draws nothing until it is iterated, and the benchmark's
    # tracer counts its items and draws through the generator protocol
    assert inspect.isgeneratorfunction(sampler)
