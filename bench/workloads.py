"""The three benchmark workloads: inputs, the timed round, the checks.

Each workload drives ratiolab through its public entry points. ``run_round``
is the timed phase and only calls the program; ``check`` runs afterwards,
untimed, and compares the outputs with computations made apart from the
program (``reference``) or with properties the method must have. It never
compares against a stored copy of earlier output.

Functions are looked up on their modules at the start of every round, so
the traced run's wrappers (``tracing``) are picked up.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ratiolab import cli, cubic, errors, mapping, ratios, theorems

import reference

SQRT3 = math.sqrt(3.0)
CLOSED_SLACK = 1e-12


@dataclass
class Verdict:
    """Outcome of one round's checks.

    ``failed`` counts failed operations, including the expected failures of
    the known-fault slices; ``errors`` describes only the unexpected ones,
    and the run is correct when it is empty.
    """

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def error(self, msg: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(msg)


def bounds_hold(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """The seven per-sample bounds T1A, T1B, T1E, T2A, T2B, T2E, T3 (the
    order ``check_bounds`` reports them in), one column each."""
    return np.stack([
        np.minimum(s1.real, 2.0 / 3.0 - s1.real) > 0.0,
        1.0 / 3.0 - np.abs(s1.imag) >= -CLOSED_SLACK,
        2.0 / 3.0 - np.abs(s1) >= -CLOSED_SLACK,
        np.minimum(s2.real - 1.0 / 3.0, 1.0 - s2.real) > 0.0,
        1.0 / 3.0 - np.abs(s2.imag) >= -CLOSED_SLACK,
        1.0 - np.abs(s2) >= -CLOSED_SLACK,
        s2.real - s1.real >= -CLOSED_SLACK,
    ], axis=1)


def identity_residual(s1, s2):
    return np.abs((1.0 - s1) * s2 - 1.0 / 3.0)


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# verify


CLAIM_IDS = (
    "L1A", "L1B", "L2A", "L2B",
    "T1A", "T1B", "T1C", "T1D", "T1E",
    "T2A", "T2B", "T2C", "T2D", "T2E",
    "T3", "T4", "T5", "HYP",
)
_ROOTS = re.compile(r"roots \[([^\]]*)\]")
_PROBE = re.compile(r"Re sigma([12])\(([+-][0-9.e+]+)\) = ([^,;]+)")


def _six_digit_match(printed: float, exact: float) -> bool:
    """Whether ``printed`` is ``exact`` rounded to 6 significant digits."""
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(exact))) - 5)
    return abs(printed - exact) <= half_unit * (1.0 + 1e-9)


class Verify:
    """``ratiolab verify all`` in-process; one operation is one claim report."""

    name = "verify"

    def __init__(self, seed: int, samples: int = 20_000):
        self.seed = seed
        self.samples = samples

    def prepare(self) -> None:
        self.argv = ["verify", "all", "--samples", str(self.samples), "--seed", str(self.seed)]

    def run_round(self):
        return run_cli(self.argv)

    def check(self, out) -> Verdict:
        code, text = out
        v = Verdict(attempted=len(CLAIM_IDS))
        if code != 0:
            v.error(f"verify exited {code}")
        reports = {}
        for line in text.splitlines():
            try:
                rep = json.loads(line)
                cid = rep["claim"]
            except (ValueError, KeyError, TypeError):
                v.error(f"unparseable report line {line[:80]!r}")
                continue
            if cid in reports:
                v.error(f"claim {cid} reported twice")
            reports[cid] = rep
        bad = set()
        for cid in CLAIM_IDS:
            rep = reports.get(cid)
            if rep is None:
                v.error(f"claim {cid} missing")
                bad.add(cid)
            elif rep.get("passed") is not True:
                v.error(f"claim {cid} not passed")
                bad.add(cid)
        for cid, where in (("L2A", -2.0), ("L2B", 2.0)):
            if cid in bad:
                continue
            m = _ROOTS.search(reports[cid].get("note", ""))
            roots = [float(x) for x in m.group(1).split(",")] if m and m.group(1).strip() else []
            if len(roots) != 1 or abs(roots[0] - where) > 1e-9 or not reports[cid]["margin"] <= 1e-9:
                v.error(f"{cid} roots {roots} not at {where:+g}")
                bad.add(cid)
        # sharpness probes: Re sigma at t = +-1e3 on the upper side of the rays
        for cid, which in (("T1A", "1"), ("T2A", "2")):
            if cid in bad:
                continue
            probes = {
                float(t): float(val)
                for k, t, val in _PROBE.findall(reports[cid].get("note", ""))
                if k == which
            }
            if set(probes) != {1e3, -1e3}:
                v.error(f"{cid} note lacks the probes at t = +-1e3")
                bad.add(cid)
                continue
            for t, printed in probes.items():
                s1 = reference.mp_ray_sigma1(t)
                exact = s1.real if which == "1" else (1.0 / (3.0 * (1.0 - s1))).real
                if not _six_digit_match(printed, exact):
                    v.error(f"{cid} probe at t={t:+g}: {printed} vs mpmath {exact:.9g}")
                    bad.add(cid)
        v.failed = len(bad)
        return v


# ---------------------------------------------------------------------------
# routes

#: Categories whose triangles are not collinear; they also go through the
#: inellipse route. The near-+-1 slice is left out: its triangles are
#: slivers (relative area ~1e-8) on which the conic fit is ill-conditioned.
INELLIPSE_CATEGORIES = ("generic", "equilateral", "near_equilateral", "ray")
#: Equilateral triangles have a double critical point and sit on the branch
#: point w = +-i sqrt(3); rounding of the input moves both by sqrt(eps), so
#: the routes that do not snap to the double point are held to this.
DOUBLE_POINT_TOL = 1e-6


@dataclass
class Triple:
    """What the chain returned for one triple (or the exception it raised)."""

    exc: str | None
    roots: tuple = ()
    direct: tuple = ()
    w: complex = 0j
    w2n: complex = 0j
    w3n: complex = 0j
    admissible: bool = False
    on_boundary: bool = False
    reasons: tuple = ()
    via_w: tuple | None = None
    brute: tuple = ()
    bounds: tuple = ()
    foci: tuple | None = None


class Routes:
    """The ``compute`` path on a seeded batch; one operation is one triple."""

    name = "routes"

    def __init__(self, seed: int, counts: dict[str, int] | None = None):
        self.seed = seed
        self.counts = counts
        self._ref = None

    def prepare(self) -> None:
        self.batch = reference.routes_batch(self.seed, self.counts)
        self.triples = self.batch.roots.tolist()
        self.with_ellipse = np.isin(self.batch.category, INELLIPSE_CATEGORIES).tolist()

    def run_round(self) -> list[Triple]:
        order_roots = cubic.order_roots
        ratios_direct = ratios.ratios_direct
        normalize = cubic.normalize
        assess = cubic.assess_admissibility
        via_w = ratios.ratios_via_w
        brute = cubic.critical_points_bruteforce
        check_bounds = theorems.check_bounds
        inellipse = mapping.steiner_inellipse
        out = []
        for (r1, r2, r3), ell in zip(self.triples, self.with_ellipse):
            try:
                c = order_roots(r1, r2, r3)
                rv = ratios_direct(c)
                n = normalize(c)
                rep = assess(n.w2n, n.w3n)
                vw = via_w(n, rep) if rep.admissible else None
                bf = brute(c.w1, c.w2, c.w3)
                cb = check_bounds(rv)
                e = inellipse(c) if ell else None
            except errors.RatioLabError as exc:
                out.append(Triple(type(exc).__name__))
                continue
            out.append(Triple(
                None, c.roots, (rv.sigma1, rv.sigma2), n.w, n.w2n, n.w3n,
                rep.admissible, rep.on_boundary, rep.reasons,
                None if vw is None else (vw.sigma1, vw.sigma2),
                bf, tuple(r.passed for r in cb),
                None if e is None else (e.focus1, e.focus2),
            ))
        return out

    def _reference(self):
        if self._ref is None:
            b = self.batch
            equi = b.category == "equilateral"
            s1, s2, z1, z2 = reference.reference_ratios(b.roots, equi)
            o1, o2, _, _ = reference.reference_ratios(b.original)
            self._ref = (s1, s2, z1, z2, np.stack([o1, o2], axis=1))
        return self._ref

    def check(self, out: list[Triple]) -> Verdict:
        b = self.batch
        n = len(b)
        v = Verdict(attempted=n)
        if len(out) != n:
            v.error(f"{len(out)} results for {n} triples")
            v.failed = n
            return v
        s1_ref, s2_ref, z1_ref, z2_ref, original = self._reference()
        cat = b.category
        ok_chain = np.array([t.exc is None for t in out])
        nan = complex(math.nan, math.nan)

        def col(get, default=(nan, nan)):
            return np.array([get(t) if t.exc is None else default for t in out], dtype=complex)

        direct = col(lambda t: t.direct)
        via = col(lambda t: t.via_w if t.via_w is not None else (nan, nan))
        brute = col(lambda t: t.brute)
        foci = col(lambda t: t.foci if t.foci is not None else (nan, nan))
        roots = col(lambda t: t.roots, (nan, nan, nan))
        w = col(lambda t: (t.w, t.w2n, t.w3n), (nan, nan, nan))
        adm = np.array([t.admissible for t in out])
        on_b = np.array([t.on_boundary for t in out])
        incoherent = np.array([t.reasons == ("branch-incoherent",) for t in out])
        bounds = np.array([t.bounds if t.exc is None else (False,) * 7 for t in out])
        has_foci = np.array([t.foci is not None for t in out])

        diam = np.max(np.abs(roots[:, [0, 0, 1]] - roots[:, [1, 2, 2]]), axis=1)
        equi = cat == "equilateral"
        tol_route = np.where(equi, DOUBLE_POINT_TOL, 1e-9)
        tol_focus = np.where(equi, DOUBLE_POINT_TOL, 1e-8)

        with np.errstate(invalid="ignore"):
            d_err = np.maximum(np.abs(direct[:, 0] - s1_ref), np.abs(direct[:, 1] - s2_ref))
            v_err = np.maximum(np.abs(via[:, 0] - s1_ref), np.abs(via[:, 1] - s2_ref))
            b_err = np.maximum(np.abs(brute[:, 0] - z1_ref), np.abs(brute[:, 1] - z2_ref)) / diam
            f_err = np.maximum(np.abs(foci[:, 0] - z1_ref), np.abs(foci[:, 1] - z2_ref)) / diam
            id_d = identity_residual(direct[:, 0], direct[:, 1])
            id_v = identity_residual(via[:, 0], via[:, 1])
            # branch coherence, evaluated apart off the rays: principal sqrt of
            # 3 w3n^2 + w2n^2 against w3n * sqrt(3 + w^2), equal up to sign
            rq = np.sqrt(3.0 * w[:, 2] ** 2 + w[:, 1] ** 2)
            own_incoherent = np.abs(rq - w[:, 2] * np.sqrt(3.0 + w[:, 0] ** 2)) > np.abs(rq)
            own_bounds = bounds_hold(direct[:, 0], direct[:, 1])
        on_rays = np.isin(cat, ("ray", "equilateral"))
        own_incoherent &= ~on_rays
        may_be_incoherent = np.isin(cat, ("generic", "near_equilateral"))

        twin = b.twin
        seeded = twin >= 0
        twin_err = np.full(n, np.inf)
        twin_err[seeded] = np.max(np.abs(direct[seeded] - direct[twin[seeded]]), axis=1)
        checks = {
            "chain raised": ~ok_chain,
            "direct ratios off the reference": ~(d_err <= 1e-9),
            "direct identity residual": ~(id_d <= 1e-10),
            "admissibility": ~(adm | (may_be_incoherent & incoherent)) | (on_b != on_rays),
            "branch coherence": (incoherent != own_incoherent),
            "closed forms off the reference": adm & ~(v_err <= tol_route),
            "closed-form identity residual": adm & ~(id_v <= 1e-10),
            "brute-force critical points": ~(b_err <= tol_route),
            "check_bounds flags": np.any(bounds != own_bounds, axis=1) | (adm & ~own_bounds.all(axis=1)),
            "inellipse foci": np.isin(cat, INELLIPSE_CATEGORIES) & ~(has_foci & (f_err <= tol_focus)),
            "twin placement differs": ~(twin_err <= 1e-9),
            "all-real ordering": (cat == "real") & ~(
                (1 / 3 < direct[:, 0].real) & (direct[:, 0].real < 0.5)
                & (0.5 < direct[:, 1].real) & (direct[:, 1].real < 2 / 3)),
            "collinear ratio not real": np.isin(cat, ("real", "collinear")) & ~(
                np.maximum(np.abs(direct[:, 0].imag), np.abs(direct[:, 1].imag)) <= 1e-10),
            "equilateral sigma1 != sigma2": equi & ~(np.abs(direct[:, 0] - direct[:, 1]) <= 1e-10),
        }
        bad = np.zeros(n, dtype=bool)
        for what, mask in checks.items():
            mask = mask & seeded
            if mask.any():
                v.error(f"{what}: {int(mask.sum())} triples, first row {int(np.argmax(mask))}")
            bad |= mask

        # known fault 1: the input gate is not scale-invariant
        scale = cat == "scale_1e-10"
        with np.errstate(invalid="ignore"):
            s_err = np.max(np.abs(direct[scale] - original), axis=1)
        bad[scale] |= ~(ok_chain[scale] & (s_err <= 1e-12) & (id_d[scale] <= 1e-10))

        # known fault 2: the closed forms return 1/2 within 1e-7 of w = -+1
        near = np.flatnonzero(cat == "near_one")
        for i in near:
            t = out[i]
            good = t.exc is None and t.via_w is not None
            if good:
                mp1, mp2 = reference.mp_f(t.w), reference.mp_g(t.w)
                good = (
                    max(abs(t.via_w[0] - mp1), abs(t.via_w[1] - mp2)) <= 1e-9
                    and id_v[i] <= 1e-10
                )
            bad[i] |= not good

        v.failed = int(bad.sum())
        v.info = {
            "branch_incoherent": int((incoherent & seeded).sum()),
            "scale_slice_failed": int((bad & scale).sum()),
            "near_one_slice_failed": int(bad[near].sum()),
        }
        return v


# ---------------------------------------------------------------------------
# datasets

SWEEP_RANGE = (-3.0, 3.0)
COLUMNS = (
    "w_re", "w_im", "sigma1_re", "sigma1_im", "sigma2_re", "sigma2_im",
    "path", "classification", "reachable", "bounds_ok",
)
_FLOATS = 6
_BOOL_TEXT = {"true": True, "false": False, "": None}


@dataclass
class Table:
    """Parsed dataset: numeric columns as arrays, text columns as lists."""

    num: np.ndarray          # (rows, 6), NaN for empty cells
    path: list
    cls: list
    reachable: list
    bounds_ok: list
    bad_rows: np.ndarray     # row failed a format or CSV/JSONL agreement check

    @property
    def w(self):
        return self.num[:, 0] + 1j * self.num[:, 1]

    @property
    def s1(self):
        return self.num[:, 2] + 1j * self.num[:, 3]

    @property
    def s2(self):
        return self.num[:, 4] + 1j * self.num[:, 5]


def _parse_row(i: int, lc: str, lj: str, num: np.ndarray, text: list) -> bool:
    """Store row i of both files; whether it is well formed and they agree."""
    cells = lc.rstrip("\n").split(",")
    try:
        obj = json.loads(lj)
    except ValueError:
        return False
    if len(cells) != len(COLUMNS) or list(obj) != list(COLUMNS):
        return False
    ok = True
    for k in range(_FLOATS):
        cell, val = cells[k], obj[COLUMNS[k]]
        if cell == "":
            ok &= val is None
            continue
        x = float(cell)
        # integral values print without a point, so JSON reads an int
        ok &= format(x, ".17g") == cell and type(val) in (int, float) and val == x
        num[i, k] = x
    for k, name in enumerate(("path", "classification")):
        ok &= obj[name] == cells[6 + k]
        text[k][i] = cells[6 + k]
    for k, name in enumerate(("reachable", "bounds_ok")):
        flag = _BOOL_TEXT.get(cells[8 + k], "bad")
        ok &= flag is obj[name]
        text[2 + k][i] = flag
    return ok


def parse_pair(csv_path: Path, jsonl_path: Path, rows: int) -> tuple[Table, list[str]]:
    """Read the CSV and JSONL renderings of one dataset in lockstep.

    A row is bad when a float does not round-trip through 17 significant
    digits, when a field is malformed, or when the two files disagree.
    Rows beyond ``rows`` are ignored; missing rows stay bad.
    """
    problems = []
    num = np.full((rows, _FLOATS), np.nan)
    text = [[None] * rows for _ in range(4)]
    bad = np.ones(rows, dtype=bool)
    with open(csv_path, encoding="utf-8") as fc, open(jsonl_path, encoding="utf-8") as fj:
        header = fc.readline().rstrip("\n")
        if header != ",".join(COLUMNS):
            problems.append(f"CSV header {header!r}")
        i = 0
        for lc, lj in zip(fc, fj):
            if i == rows:
                problems.append(f"more than {rows} rows written")
                break
            bad[i] = not _parse_row(i, lc, lj, num, text)
            i += 1
        else:
            if i < rows:
                problems.append(f"{i} rows written, {rows} expected")
            elif fc.readline() or fj.readline():
                problems.append(f"more than {rows} rows written")
    return Table(num, text[0], text[1], text[2], text[3], bad), problems


def classify_w(w: np.ndarray) -> np.ndarray:
    equi = (np.abs(w - 1j * SQRT3) <= 1e-9) | (np.abs(w + 1j * SQRT3) <= 1e-9)
    return np.where(equi, "equilateral", np.where(np.abs(w.imag) <= 1e-9, "collinear", "generic"))


def reachable_w(w: np.ndarray) -> np.ndarray:
    return (np.abs(w.imag) > 1e-9) | (np.abs(w.real) < 1.0 - 1e-9)


def trace_peak_ok(ts: np.ndarray, im: np.ndarray, step: float) -> bool:
    """Im sigma1 peaks at exactly 1/3 at t = -2, quadratically (the ray
    function's derivative vanishes there and its second derivative is
    -1/3), so on a grid of this step the maximum sits within a step of
    t = -2 and within step^2 / 24 below 1/3; step^2 / 8 leaves headroom."""
    im = np.where(np.isnan(im), -np.inf, im)
    k = int(np.argmax(im))
    return bool(abs(ts[k] + 2.0) <= step and 1.0 / 3.0 - step * step / 8 <= im[k]
                and im[k] <= 1.0 / 3.0 + CLOSED_SLACK)


class Datasets:
    """``ratiolab sweep`` and ``ratiolab boundary``, each as CSV and JSONL;
    one operation is one row written."""

    name = "datasets"

    def __init__(self, seed: int, workdir: Path, resolution: int = 201,
                 steps: int = 10_000, t_max: float = 100.0, spot_checks: int = 1000):
        self.seed = seed
        self.workdir = workdir
        self.resolution = resolution
        self.steps = steps
        self.t_max = t_max
        self.spot_checks = spot_checks

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(dir=self.workdir))
        lo, hi = (repr(x) for x in SWEEP_RANGE)
        sweep = ["sweep", "--re-range", lo, hi, "--im-range", lo, hi,
                 "--resolution", str(self.resolution)]
        trace = ["boundary", "--tmin", repr(SQRT3), "--tmax", repr(self.t_max),
                 "--steps", str(self.steps)]
        self.jobs = {}
        for kind, argv in (("sweep", sweep), ("boundary", trace)):
            for fmt in ("csv", "jsonl"):
                path = self.dir / f"{kind}.{fmt}"
                # relative, so the CLI's summary line holds a plain path
                out = os.path.relpath(path)
                self.jobs[kind, fmt] = (path, argv + ["--out", out, "--format", fmt])

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def run_round(self) -> dict:
        return {key: run_cli(argv) for key, (_, argv) in self.jobs.items()}

    def _summary(self, v: Verdict, out, kind: str, rows: int) -> dict:
        """The CLI's one-line JSON summary, the same for both formats."""
        summaries = []
        for fmt in ("csv", "jsonl"):
            code, text = out[kind, fmt]
            try:
                s = json.loads(text)
            except ValueError:
                v.error(f"{kind} {fmt}: summary is not JSON: {text[:80]!r}")
                s = {}
            if code != 0:
                v.error(f"{kind} {fmt} exited {code}")
            s.pop("out", None)
            summaries.append(s)
        if summaries[0] != summaries[1]:
            v.error(f"{kind}: CSV and JSONL summaries differ: {summaries}")
        if summaries[0].get("rows") != rows:
            v.error(f"{kind}: reported rows {summaries[0].get('rows')} != {rows}")
        return summaries[0]

    def _spot(self, rows: int, size: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, 11, rows])
        return rng.choice(rows, size=min(size, rows), replace=False)

    def check(self, out) -> Verdict:
        n_sweep, n_trace = self.resolution**2, 2 * self.steps
        v = Verdict(attempted=2 * (n_sweep + n_trace))
        # a bad row is counted once in each of its two files
        v.failed = 2 * (self._check_sweep(v, out, n_sweep) + self._check_trace(v, out, n_trace))
        return v

    def _check_sweep(self, v: Verdict, out, rows: int) -> int:
        summary = self._summary(v, out, "sweep", rows)
        tab, problems = parse_pair(self.jobs["sweep", "csv"][0], self.jobs["sweep", "jsonl"][0], rows)
        for p in problems:
            v.error("sweep: " + p)
        axis = np.linspace(*SWEEP_RANGE, self.resolution)
        grid = np.repeat(axis, self.resolution) + 1j * np.tile(axis, self.resolution)
        s1, s2 = tab.s1, tab.s2
        path = np.array(tab.path, dtype=object)
        skip = (np.abs(grid.real) <= 1e-9) & (np.abs(grid.imag) >= SQRT3 - 1e-9)
        live = ~skip
        extension = (np.abs(grid - 1.0) < 1e-7) | (np.abs(grid + 1.0) < 1e-7)
        with np.errstate(invalid="ignore"):
            own_ok = bounds_hold(s1, s2).all(axis=1)
            bad = tab.bad_rows | (tab.w != grid)
            bad |= skip & ((path != "skip") | ~np.isnan(tab.num[:, 2:]).all(axis=1)
                           | np.array([b is not None for b in tab.bounds_ok]))
            bad |= live & ~((path == "interior") | (extension & (path == "extension")))
            bad |= live & ~(identity_residual(s1, s2) <= 1e-10)
            bad |= live & (np.array(tab.bounds_ok, dtype=object) != own_ok)
        bad |= np.array(tab.cls, dtype=object) != classify_w(grid)
        bad |= np.array(tab.reachable, dtype=object) != reachable_w(grid)
        for i in self._spot(rows, self.spot_checks):
            if live[i] and not bad[i]:
                wi = complex(grid[i])
                err = max(abs(s1[i] - reference.mp_f(wi)), abs(s2[i] - reference.mp_g(wi)))
                bad[i] = not err <= 1e-9
        if summary.get("skipped") != int(skip.sum()):
            v.error(f"sweep: reported skipped {summary.get('skipped')} != {int(skip.sum())}")
        own_violations = int((live & ~own_ok).sum())
        if summary.get("bounds_violations") != own_violations:
            v.error(f"sweep: reported bounds_violations {summary.get('bounds_violations')}"
                    f" != {own_violations}")
        if bad.any():
            v.error(f"sweep: {int(bad.sum())} bad rows, first {int(np.argmax(bad))}")
        return int(bad.sum())

    def _check_trace(self, v: Verdict, out, rows: int) -> int:
        summary = self._summary(v, out, "boundary", rows)
        tab, problems = parse_pair(self.jobs["boundary", "csv"][0],
                                   self.jobs["boundary", "jsonl"][0], rows)
        for p in problems:
            v.error("boundary: " + p)
        ts = np.concatenate([-np.linspace(self.t_max, SQRT3, self.steps),
                             np.linspace(SQRT3, self.t_max, self.steps)])
        s1, s2 = tab.s1, tab.s2
        path = np.array(tab.path, dtype=object)
        equi = np.abs(np.abs(ts) - SQRT3) <= 1e-9
        with np.errstate(invalid="ignore"):
            own_ok = bounds_hold(s1, s2).all(axis=1)
            bad = tab.bad_rows | (tab.w != 1j * ts)
            bad |= (path != "boundary") | ~(identity_residual(s1, s2) <= 1e-10)
            bad |= np.array(tab.bounds_ok, dtype=object) != own_ok
        bad |= np.array(tab.cls, dtype=object) != np.where(equi, "equilateral", "generic")
        bad |= np.array(tab.reachable, dtype=object) != True  # noqa: E712
        for i in self._spot(rows, self.spot_checks // 4):
            if not bad[i]:
                bad[i] = not abs(s1[i] - reference.mp_ray_sigma1(float(ts[i]))) <= 1e-9
        own_violations = int((~own_ok).sum())
        if summary.get("bounds_violations") != own_violations:
            v.error(f"boundary: reported bounds_violations {summary.get('bounds_violations')}"
                    f" != {own_violations}")
        step = (self.t_max - SQRT3) / (self.steps - 1)
        if not trace_peak_ok(ts, s1.imag, step):
            v.error("boundary: max Im sigma1 is not 1/3 at t = -2")
        if bad.any():
            v.error(f"boundary: {int(bad.sum())} bad rows, first {int(np.argmax(bad))}")
        return int(bad.sum())


WORKLOADS = {"verify": Verify, "routes": Routes, "datasets": Datasets}
