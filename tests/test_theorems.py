import ast
import cmath
import dataclasses
import math

import numpy as np
import pytest

from ratiolab import (
    BadParameterError,
    Configuration,
    ConstraintViolatedError,
    NotHyperbolicError,
    SQRT3,
    RatioPath,
    RatioVector,
    UndefinedRatioError,
    bounds_mask,
    check_bounds,
    check_equivalence_t4,
    check_equivalence_t5,
    check_hyperbolic,
    classify_configuration,
    extremal_family_im,
    normalize,
    order_roots,
    ratios_direct,
    run_claims,
    sample_ordered_cubics,
    scan_lemma1,
    scan_lemma2,
    sharpness_probe_re,
    sigma2_extremal_family,
)
from ratiolab import theorems
from ratiolab.errors import BadRangeError
from ratiolab.ratios import boundary_uv
from ratiolab.kernel import EQ_TOL
from ratiolab.theorems import CLOSED_BOUND_SLACK, lemma1_expressions, lemma2_expressions


def test_lemma1_spot_values():
    a, b = lemma1_expressions(2.0)
    assert abs(a - (-9.0)) < 1e-12  # 4*2*1 - 20 + 3
    a, _ = lemma1_expressions(SQRT3)
    assert abs(a - (-12.0)) < 1e-12  # radical term vanishes
    # squaring identity at t = 2: 16*4*1 - 17^2 = -225 = -9 * 25
    t = 2.0
    lhs = 16 * t * t * (t * t - 3) - (5 * t * t - 3) ** 2
    assert lhs == -225.0 == -9.0 * (t * t + 1) ** 2


def test_lemma2_spot_values():
    a, b = lemma2_expressions(-2.0)
    assert abs(a) < 1e-12  # -8 + 14 - 2*3*1 = 0
    a, _ = lemma2_expressions(2.0)
    assert abs(a - (-12.0)) < 1e-12  # 8 - 14 - 6
    t = 3.0
    lhs = (t**3 - 7 * t) ** 2 - 4 * (t * t - 1) ** 2 * (t * t - 3)
    rhs = -3 * (t - 2) * (t + 2) * (t * t + 1) ** 2
    assert lhs == -1500.0 == rhs


def test_scan_lemma1_short_grid():
    ra, rb = scan_lemma1(SQRT3, 50.0, 2000)
    assert ra.claim_id == "L1A" and rb.claim_id == "L1B"
    assert ra.passed and rb.passed
    assert ra.margin > 3.0 and rb.margin > 3.0


def test_scan_lemma2_short_grid():
    ra, rb = scan_lemma2(SQRT3, 50.0, 2000)
    assert ra.passed and rb.passed
    assert ra.margin <= 1e-9 and rb.margin <= 1e-9
    for rep, where in ((ra, -2.0), (rb, 2.0)):
        # the note lists plain floats, so it parses as a Python literal
        roots = ast.literal_eval(rep.note.split("roots ")[1])
        assert len(roots) == 1 and type(roots[0]) is float
        assert abs(roots[0] - where) <= 1e-12


def test_scan_range_validation():
    with pytest.raises(BadRangeError):
        scan_lemma1(1.0, 50.0, 2000)
    with pytest.raises(BadRangeError):
        scan_lemma1(SQRT3, 50.0, 10)
    with pytest.raises(BadRangeError):
        scan_lemma2(50.0, 2.0, 2000)


def test_check_bounds_hyperbolic_margins():
    rv = ratios_direct(order_roots(-1, 0, 1))
    reports = {r.claim_id: r for r in check_bounds(rv)}
    assert all(r.passed for r in reports.values())
    expected_t3 = 2.0 * SQRT3 / 3.0 - 1.0
    assert abs(reports["T3"].margin - expected_t3) < 1e-12


def test_check_bounds_equilateral_t3_margin_zero():
    rv = ratios_direct(order_roots(-1, SQRT3 * 1j, 1))
    reports = {r.claim_id: r for r in check_bounds(rv)}
    assert abs(reports["T3"].margin) < 1e-15
    assert reports["T3"].passed


def test_check_bounds_extremal_im_margin_zero():
    _, rv = extremal_family_im(1 - 4j, 0j, +1)
    reports = {r.claim_id: r for r in check_bounds(rv)}
    assert abs(reports["T1B"].margin) < 1e-15
    assert reports["T1B"].passed


def test_sharpness_probe_values():
    _, rv = sharpness_probe_re(100.0)
    assert rv.sigma1.real >= 0.66
    _, rv = sharpness_probe_re(-100.0)
    assert rv.sigma1.real <= 0.01
    _, rv = sharpness_probe_re(2.0)
    assert abs(rv.sigma1 - (0.6 - 0.2j)) < 1e-12
    with pytest.raises(BadParameterError):
        sharpness_probe_re(1.0)


def test_sharpness_probe_matches_ray_parameterization():
    for t in (2.0, 5.0, 37.5, 400.0, -2.0, -5.0, -37.5, -400.0):
        _, rv = sharpness_probe_re(t)
        u1, _, v1, _ = boundary_uv(t)
        assert abs(rv.sigma1.real - u1) < 1e-9
        assert abs(rv.sigma1.imag - v1) < 1e-9


def test_sharpness_attainment_monotone():
    values = [sharpness_probe_re(t)[1].sigma1.real for t in (10.0, 1e2, 1e3, 1e4)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[2] > 0.666
    downsides = [sharpness_probe_re(-t)[1].sigma1.real for t in (10.0, 1e2, 1e3, 1e4)]
    assert all(b < a for a, b in zip(downsides, downsides[1:]))


def test_extremal_family_im_positive():
    cub, rv = extremal_family_im(1 - 4j, 0j, +1)
    assert {cub.w1, cub.w2, cub.w3} == {-4 - 1j, 2 - 8j, 4 + 1j}
    assert abs(rv.sigma1 - (1 / 3 + 1j / 3)) < 1e-12
    assert abs(rv.sigma1.imag - 1 / 3) < 1e-12


def test_extremal_family_im_negative():
    _, rv = extremal_family_im(1 + 4j, 0j, -1)
    assert abs(rv.sigma1.imag + 1 / 3) < 1e-12


def test_extremal_family_im_translation_invariant():
    _, rv = extremal_family_im(1 - 4j, 3.5 - 2.25j, +1)
    assert abs(rv.sigma1.imag - 1 / 3) < 1e-12


def test_extremal_family_constraint_validation():
    with pytest.raises(ConstraintViolatedError):
        extremal_family_im(1 + 4j, 0j, +1)  # wrong half plane
    with pytest.raises(ConstraintViolatedError):
        extremal_family_im(3 - 4j, 0j, +1)  # Re z0 too large
    with pytest.raises(BadParameterError):
        extremal_family_im(1 - 4j, 0j, 2)


def test_mirror_family_does_not_attain_extreme():
    # other side of the strip (Re w2 < 0): sigma1 = 3/5 + i/5, not extremal
    u = -1 - 4j
    c = order_roots(1j * u, -1j * u, 2 * u)
    rv = ratios_direct(c)
    assert abs(rv.sigma1 - (0.6 + 0.2j)) < 1e-12
    assert abs(rv.sigma1.imag - 1 / 3) > 0.1


def test_sigma2_family_attains_extreme():
    _, rv = sigma2_extremal_family(-1 - 4j, 0j, +1)
    assert abs(rv.sigma2.imag - 1 / 3) < 1e-12
    _, rv = sigma2_extremal_family(-1 + 4j, 0j, -1)
    assert abs(rv.sigma2.imag + 1 / 3) < 1e-12
    with pytest.raises(ConstraintViolatedError):
        sigma2_extremal_family(1 - 4j, 0j, +1)


def test_sigma1_family_misses_sigma2_extreme():
    # on the sigma1 strip the second ratio sits at (2 + i)/5
    _, rv = extremal_family_im(1 - 4j, 0j, +1)
    assert abs(rv.sigma2 - (0.4 + 0.2j)) < 1e-12
    assert abs(rv.sigma2.imag - 1 / 3) > 0.13


@pytest.mark.parametrize(
    "family, cases",
    [
        (extremal_family_im, [(1 - 4j, +1, True), (1 + 4j, -1, True), (3 - 4j, +1, False)]),
        (sigma2_extremal_family, [(-1 - 4j, +1, True), (-1 + 4j, -1, True), (-3 - 4j, +1, False)]),
    ],
)
def test_families_scale_free(family, cases):
    # the strips are cones: scaling z0 by lambda > 0 neither moves a point
    # across an edge nor changes the ratios
    for z0, sign, inside in cases:
        ref = family(z0, 0j, sign)[1] if inside else None
        for lam in 10.0 ** np.linspace(-90, 90, 37):
            if not inside:
                with pytest.raises(ConstraintViolatedError):
                    family(lam * z0, 0j, sign)
                continue
            _, rv = family(lam * z0, 0j, sign)
            assert abs(rv.sigma1 - ref.sigma1) <= 1e-12
            assert abs(rv.sigma2 - ref.sigma2) <= 1e-12


def test_t4_equivalence_cases():
    assert check_equivalence_t4(order_roots(-1, SQRT3 * 1j, 1)).passed
    assert check_equivalence_t4(order_roots(-1, 0, 1)).passed
    rep = check_equivalence_t4(order_roots(-1, SQRT3 * 1j + 0.01, 1))
    assert rep.passed  # near-equilateral: neither equal nor classified equilateral
    c = order_roots(-1, -SQRT3 * 1j, 1)
    assert classify_configuration(c) is Configuration.EQUILATERAL
    rv = ratios_direct(c)
    assert abs(rv.sigma1 - rv.sigma2) < 1e-12


def test_t4_near_equilateral_set():
    # the apex moved by |d| log-uniform in [1e-12, 1e-3], random direction:
    # equilateral (double critical point) exactly where sigma1 = sigma2
    rng = np.random.default_rng(20260)
    mags = 10.0 ** rng.uniform(-12.0, -3.0, 2000)
    angles = rng.uniform(0.0, 2.0 * np.pi, 2000)
    built = 0
    for mag, ang in zip(mags, angles):
        try:
            c = order_roots(-1, SQRT3 * 1j + cmath.rect(mag, ang), 1)
        except UndefinedRatioError:
            continue  # critical points on a common vertical line
        built += 1
        rep = check_equivalence_t4(c)
        assert rep.passed, (mag, ang, rep.margin)
    assert built >= 1990


def test_t5_equivalence_cases():
    assert check_equivalence_t5(order_roots(-1 - 1j, 0, 1 + 1j)).passed
    rv = ratios_direct(order_roots(-1 - 1j, 0, 1 + 1j))
    assert abs(rv.sigma1.imag) < 1e-12 and abs(rv.sigma2.imag) < 1e-12
    assert check_equivalence_t5(order_roots(-1, SQRT3 * 1j, 1)).passed
    assert check_equivalence_t5(order_roots(-1, 0, 1)).passed
    assert check_equivalence_t5(order_roots(-4 - 1j, -2 + 8j, 4 + 1j)).passed


def test_hyperbolic_cases():
    rep = check_hyperbolic(order_roots(-1, 0, 1))
    assert rep.passed
    rv = ratios_direct(order_roots(-1, 0, 1))
    assert 1 / 3 < rv.sigma1.real < 0.5 < rv.sigma2.real < 2 / 3
    assert check_hyperbolic(order_roots(0, 1, 100)).passed
    assert check_hyperbolic(order_roots(0, 1, 1 + 1e-6)).passed
    with pytest.raises(NotHyperbolicError):
        check_hyperbolic(order_roots(-1, 1j, 1))
    # realness is relative to the diameter: (-1, 1j, 1) scaled down is not
    # real, and a 1j offset on a 3e10-wide triangle is
    with pytest.raises(NotHyperbolicError):
        check_hyperbolic(order_roots(0, 1e-10, 2e-10 + 5e-10j))
    assert check_hyperbolic(order_roots(0, 1e10, 3e10 + 1j)).passed


def test_run_claims_selector_validation():
    with pytest.raises(BadParameterError):
        run_claims("T9", samples=100)


@pytest.mark.parametrize("selector", ["all", "L1", "T1", "T3", "HYP"])
@pytest.mark.parametrize("samples", [0, -5])
def test_run_claims_rejects_sample_counts_below_one(selector, samples):
    with pytest.raises(BadParameterError, match="samples"):
        run_claims(selector, samples=samples)


def test_run_claims_lemma_groups():
    reports = run_claims("L2", samples=100)
    assert [r.claim_id for r in reports] == ["L2A", "L2B"]
    assert all(r.passed for r in reports)


def test_run_claims_t3_smoke():
    reports = run_claims("T3", samples=400, seed=7)
    assert len(reports) == 1 and reports[0].claim_id == "T3"
    assert reports[0].passed
    assert reports[0].margin >= -1e-12


def test_run_claims_deterministic():
    a = run_claims("HYP", samples=500, seed=42)
    b = run_claims("HYP", samples=500, seed=42)
    assert a == b


def _bound_edge_pairs():
    """(sigma1, sigma2) pairs that put one bound margin at 0, at
    +-CLOSED_BOUND_SLACK or at the floats next to them (and a few ulps
    around), with the other six margins comfortable."""
    slack = CLOSED_BOUND_SLACK
    targets = [0.0, 5e-324, -5e-324, slack, -slack]
    targets += [np.nextafter(x, d) for x in (slack, -slack) for d in (0.0, 2.0 * x)]
    families = {
        "T1A low": lambda x: (complex(x, 0.1), 0.6 - 0.1j),
        "T1A high": lambda x: (complex(2.0 / 3.0 - x, 0.0), 0.9 + 0j),
        "T1B": lambda x: (complex(0.4, 1.0 / 3.0 - x), 0.6 - 0.1j),
        "T1E": lambda x: ((2.0 / 3.0 - x) * (0.96 + 0.28j), 0.8 + 0j),
        "T2A low": lambda x: (0.2 + 0.1j, complex(1.0 / 3.0 + x, -0.1)),
        "T2A high": lambda x: (0.4 + 0.1j, complex(1.0 - x, 0.0)),
        "T2B": lambda x: (0.4 + 0.1j, complex(0.6, x - 1.0 / 3.0)),
        "T2E": lambda x: (0.4 + 0.1j, (1.0 - x) * (0.96 + 0.28j)),
        "T3": lambda x: (0.5 + 0.1j, complex(0.5 + x, -0.1)),
    }
    pairs = {}
    for name, family in families.items():
        out = []
        for x in targets:
            s1, s2 = family(x)
            for k in range(-3, 4):
                # nudge both parts of the ratio that carries the margin
                nudge = lambda v: complex(  # noqa: E731
                    v.real + k * np.spacing(v.real), v.imag + k * np.spacing(v.imag)
                )
                out.append((nudge(s1), s2) if name.startswith("T1") else (s1, nudge(s2)))
        pairs[name] = out
    return pairs


def test_bounds_mask_matches_check_bounds(rng):
    edges = _bound_edge_pairs()
    for name, pairs in edges.items():
        s1 = np.array([p[0] for p in pairs])
        s2 = np.array([p[1] for p in pairs])
        expected = [all(r.passed for r in check_bounds(RatioVector(a, b, RatioPath.INTERIOR)))
                    for a, b in pairs]
        assert bounds_mask(s1, s2).tolist() == expected, name
        assert any(expected) and not all(expected), name  # the edge is crossed
    s1 = rng.uniform(-0.1, 0.8, 20000) + 1j * rng.uniform(-0.4, 0.4, 20000)
    s2 = rng.uniform(0.2, 1.1, 20000) + 1j * rng.uniform(-0.4, 0.4, 20000)
    expected = [all(r.passed for r in check_bounds(RatioVector(a, b, RatioPath.INTERIOR)))
                for a, b in zip(s1.tolist(), s2.tolist())]
    mask = bounds_mask(s1, s2)
    assert mask.tolist() == expected
    assert 0 < mask.sum() < mask.size


_BOUND_IDS = ("T1A", "T1B", "T1E", "T2A", "T2B", "T2E", "T3")


def _reference_bounds_pass(cubics):
    """The bounds pass one sample at a time: check_bounds on every sample,
    a strictly smaller margin takes the witness, any failing sample marks
    the claim failed, and the verdict also needs the open or closed
    threshold on the smallest margin."""
    best = {cid: (math.inf, None) for cid in _BOUND_IDS}
    failed = set()
    strays = ([], [])
    window = max(EQ_TOL, math.sqrt(40.0 * EQ_TOL))
    for c in cubics:
        rv = ratios_direct(c)
        for rep in check_bounds(rv):
            if rep.margin < best[rep.claim_id][0]:
                best[rep.claim_id] = (rep.margin, theorems._witness(c, rv))
            if not rep.passed:
                failed.add(rep.claim_id)
        for s, found in zip((rv.sigma1, rv.sigma2), strays):
            if 1.0 / 3.0 - abs(s.imag) <= EQ_TOL:
                target = -2j if s.imag > 0 else 2j
                if abs(normalize(c).w - target) > window:
                    found.append(theorems._witness(c, rv))
    verdicts = {}
    for cid, (margin, witness) in best.items():
        threshold = margin > 0.0 if cid in ("T1A", "T2A") else margin >= -CLOSED_BOUND_SLACK
        verdicts[cid] = (cid not in failed and threshold, margin, witness)
    return verdicts, strays


def _assert_matches_reference(reports, strays, cubics):
    expected, expected_strays = _reference_bounds_pass(cubics)
    assert list(reports) == list(_BOUND_IDS)
    for cid, rep in reports.items():
        assert (rep.passed, rep.margin, rep.witness) == expected[cid], cid
    assert strays == expected_strays


@pytest.mark.parametrize("seed", [11, 2026])
def test_bounds_pass_matches_per_sample_loop(seed):
    reports, strays = theorems._bounds_claims(3000, seed)
    cubics = sample_ordered_cubics(3000, np.random.default_rng([seed, 1]))
    _assert_matches_reference(reports, strays, cubics)
    assert all(rep.passed for rep in reports.values())


def _planted_pass(monkeypatch, planted, samples=2000, at=1000):
    """_bounds_claims on the sampler's own draws with one cubic put in at
    position at; returns its reports, its strays and the cubics it saw."""
    good = list(sample_ordered_cubics(samples - 1, np.random.default_rng([5, 1])))
    cubics = good[:at] + [planted] + good[at:]
    monkeypatch.setattr(theorems, "sample_ordered_cubics", lambda n, rng: iter(cubics[:n]))
    reports, strays = theorems._bounds_claims(samples, 5)
    return reports, strays, cubics


def test_bounds_pass_fails_on_branch_incoherent_pair(monkeypatch):
    # the README's pair: ordered, but sqrt(3 w3^2 + w2^2) wraps the branch
    w2 = -1.144943420509371 + 8.6203463196231j
    w3 = 2.6620365926506335 + 0.7786881524437383j
    planted = order_roots(-w3, w2, w3)
    reports, strays, cubics = _planted_pass(monkeypatch, planted)
    _assert_matches_reference(reports, strays, cubics)
    own = {rep.claim_id: rep.margin for rep in check_bounds(ratios_direct(planted))}
    for cid in ("T1A", "T1E"):
        rep = reports[cid]
        assert not rep.passed and rep.margin == own[cid] < 0.0
        assert rep.witness.w == normalize(planted).w
    assert -1e-3 < reports["T1A"].margin < -9e-4 and -1.2e-2 < reports["T1E"].margin < -1.1e-2
    assert all(reports[cid].passed for cid in ("T1B", "T2A", "T2B", "T2E", "T3"))
    assert strays == ([], [])


def test_bounds_pass_reports_stray_attainment(monkeypatch):
    # another branch-incoherent pair, with |Im sigma1| = 0.362 > 1/3 far
    # from the attainment points w = -+2i
    w2 = 3.1348651577320052 + 9.238696826921835j
    w3 = 4.664688529761268 - 1.789596054354937j
    planted = order_roots(-w3, w2, w3)
    reports, strays, cubics = _planted_pass(monkeypatch, planted)
    _assert_matches_reference(reports, strays, cubics)
    assert not reports["T1B"].passed and reports["T1B"].witness.w == normalize(planted).w
    assert [rec.w for rec in strays[0]] == [normalize(planted).w] and strays[1] == []


def test_t4_witness_is_the_last_failing_configuration(monkeypatch):
    # two sampled triangles flagged as the gate's double critical point:
    # T4 fails on both (equilateral by the flag, yet sigma1 != sigma2), and
    # the report's witness is the later one
    good = list(sample_ordered_cubics(1000, np.random.default_rng([7, 4])))
    first, second = (dataclasses.replace(c, coincident=True) for c in good[:2])
    cubics = good[2:300] + [first] + good[300:600] + [second] + good[600:]
    assert not check_equivalence_t4(first).passed and not check_equivalence_t4(second).passed
    monkeypatch.setattr(theorems, "sample_ordered_cubics", lambda n, rng: iter(cubics[:n]))
    (rep,) = theorems._claims_t4(1000, 7)
    assert not rep.passed
    assert rep.witness == theorems._witness(second, ratios_direct(second))
    assert rep.witness.w == normalize(second).w != normalize(first).w
    assert rep.witness.classification == "equilateral"
