import math

import numpy as np
import pytest

from ratiolab import SQRT3, assess_admissibility, normalize
from ratiolab.sampling import _BLOCK, sample_ordered_cubics

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
