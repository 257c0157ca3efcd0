"""The benchmark's checks must catch planted errors.

Each workload runs once at a small size; its genuine outputs must pass, and
each planted error (a perturbed ratio, a dropped row, a wrong flag, ...)
must make the check fail. Run from the checkout root:

    python3 -m pytest -q bench/test_checks.py
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402

SMALL_ROUTES = {"generic": 60, "real": 20, "collinear": 20, "equilateral": 20,
                "near_equilateral": 20, "ray": 40}


# ---------------------------------------------------------------------------
# verify


@pytest.fixture(scope="module")
def verify_run():
    wl = workloads.Verify(seed=5, samples=2000)
    wl.prepare()
    return wl, wl.run_round()


def _edit_claim(text, cid, edit):
    lines = []
    for line in text.splitlines():
        rep = json.loads(line)
        if rep["claim"] == cid:
            rep = edit(rep)
            if rep is None:
                continue
            line = json.dumps(rep)
        lines.append(line)
    return "\n".join(lines) + "\n"


def test_verify_genuine_output_passes(verify_run):
    wl, out = verify_run
    v = wl.check(out)
    assert v.errors == [] and v.failed == 0 and v.attempted == 18


@pytest.mark.parametrize("plant", [
    "exit-code", "not-json", "missing", "not-passed", "l2-root", "probe", "probe-sigma2",
])
def test_verify_catches(verify_run, plant):
    wl, (code, text) = verify_run
    if plant == "exit-code":
        code = 3
    elif plant == "not-json":
        text = text.replace('"claim": "T3"', '"claim": "T3', 1)
    elif plant == "missing":
        text = _edit_claim(text, "T4", lambda r: None)
    elif plant == "not-passed":
        text = _edit_claim(text, "T2B", lambda r: {**r, "passed": False})
    elif plant == "l2-root":
        text = _edit_claim(text, "L2A", lambda r: {**r, "note": r["note"].replace(
            "roots [", "roots [-1.99999999, ")})
    elif plant == "probe":
        text = _edit_claim(text, "T1A", lambda r: {**r, "note": _replace(
            r["note"], "Re sigma1(+1000) = 0.666666", "Re sigma1(+1000) = 0.666667")})
    else:
        text = _edit_claim(text, "T2A", lambda r: {**r, "note": _replace(
            r["note"], "Re sigma2(-1000) = 0.333334", "Re sigma2(-1000) = 0.333335")})
    v = wl.check((code, text))
    assert v.errors


def _replace(text, old, new):
    assert old in text
    return text.replace(old, new)


# ---------------------------------------------------------------------------
# routes


@pytest.fixture(scope="module")
def routes_run():
    wl = workloads.Routes(seed=5, counts=SMALL_ROUTES)
    wl.prepare()
    return wl, wl.run_round()


def _row(wl, category):
    return int(np.flatnonzero(wl.batch.category == category)[0])


def test_routes_genuine_output_passes(routes_run):
    wl, out = routes_run
    v = wl.check(out)
    assert v.errors == []
    # only the two known-fault slices may fail
    assert v.failed == v.info["scale_slice_failed"] + v.info["near_one_slice_failed"]


def _plant(out, i, **changes):
    out = list(out)
    out[i] = dataclasses.replace(out[i], **changes)
    return out


def _bump(pair, k=0, by=1e-8):
    pair = list(pair)
    pair[k] += by
    return tuple(pair)


@pytest.mark.parametrize("plant", [
    "raised", "direct", "sigma2-only", "via-w", "brute", "focus", "bounds-flag",
    "incoherent", "boundary-flag", "equilateral", "collinear-imag", "real-order",
    "dropped", "twin",
])
def test_routes_catches(routes_run, plant):
    wl, out = routes_run
    gen, equi = _row(wl, "generic"), _row(wl, "equilateral")
    t = out[gen]
    if plant == "raised":
        out = _plant(out, gen, exc="RootsNotDistinctError")
    elif plant == "direct":
        out = _plant(out, gen, direct=_bump(t.direct))
    elif plant == "sigma2-only":
        out = _plant(out, gen, direct=_bump(t.direct, 1, 2e-10))
    elif plant == "via-w":
        i = next(i for i in np.flatnonzero(wl.batch.category == "generic") if out[i].admissible)
        out = _plant(out, i, via_w=_bump(out[i].via_w, 1))
    elif plant == "brute":
        out = _plant(out, gen, brute=_bump(t.brute, 0, 1e-6 * abs(t.roots[2] - t.roots[0])))
    elif plant == "focus":
        out = _plant(out, gen, foci=_bump(t.foci, 1, 1e-6 * abs(t.roots[2] - t.roots[0])))
    elif plant == "bounds-flag":
        out = _plant(out, gen, bounds=(False,) + t.bounds[1:])
    elif plant == "incoherent":
        out = _plant(out, gen, admissible=False, reasons=("branch-incoherent",), via_w=None)
    elif plant == "boundary-flag":
        out = _plant(out, _row(wl, "ray"), on_boundary=False)
    elif plant == "equilateral":
        e = out[equi]
        out = _plant(out, equi, direct=(e.direct[0], e.direct[0] + 1e-9))
    elif plant == "collinear-imag":
        i = _row(wl, "collinear")
        out = _plant(out, i, direct=_bump(out[i].direct, 0, 1e-9j))
    elif plant == "real-order":
        i = _row(wl, "real")
        out = _plant(out, i, direct=(0.3 + 0j, out[i].direct[1]))
    elif plant == "dropped":
        out = out[:-1]
    else:
        i, j = gen, int(wl.batch.twin[gen])
        out = _plant(out, j, direct=_bump(out[j].direct, 0, 2e-9))
        out = _plant(out, i, direct=_bump(out[i].direct, 0, -2e-9))
    assert wl.check(out).errors


def test_routes_fault_slices_pass_once_mended(routes_run):
    """The slices count as passing when the program returns the right values."""
    wl, out = routes_run
    s1, s2, _, _ = reference.reference_ratios(wl.batch.original)
    scale_rows = np.flatnonzero(wl.batch.category == "scale_1e-10")
    out = list(out)
    for k, i in enumerate(scale_rows):
        out[i] = workloads.Triple(None, roots=tuple(wl.batch.roots[i]), direct=(s1[k], s2[k]),
                                  brute=(0j, 0j), bounds=(True,) * 7)
    for i in np.flatnonzero(wl.batch.category == "near_one"):
        w = out[i].w
        out[i] = dataclasses.replace(out[i], via_w=(reference.mp_f(w), reference.mp_g(w)))
    v = wl.check(out)
    assert v.info["scale_slice_failed"] == 0 and v.info["near_one_slice_failed"] == 0


# ---------------------------------------------------------------------------
# datasets


@pytest.fixture()
def datasets_run(tmp_path):
    wl = workloads.Datasets(seed=5, workdir=tmp_path, resolution=41, steps=300,
                            t_max=20.0, spot_checks=10**6)
    wl.prepare()
    yield wl, wl.run_round()
    wl.close()


def _rewrite(path, edit):
    lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    Path(path).write_text("".join(edit(lines)), encoding="utf-8")


def _set_field(line, fmt, name, value):
    if fmt == "jsonl":
        obj = json.loads(line)
        obj[name] = value
        return json.dumps(obj) + "\n"
    cells = line.rstrip("\n").split(",")
    cells[workloads.COLUMNS.index(name)] = value if isinstance(value, str) else repr(value)
    return ",".join(cells) + "\n"


def _edit_row(wl, kind, fmt, row, name, value):
    def edit(lines):
        k = row + (1 if fmt == "csv" else 0)
        lines[k] = _set_field(lines[k], fmt, name, value)
        return lines

    _rewrite(wl.jobs[kind, fmt][0], edit)


def test_datasets_genuine_output_passes(datasets_run):
    wl, out = datasets_run
    v = wl.check(out)
    assert v.errors == [] and v.failed == 0


def _float(wl, kind, row, name):
    line = Path(wl.jobs[kind, "csv"][0]).read_text().splitlines()[row + 1]
    return float(line.split(",")[workloads.COLUMNS.index(name)])


@pytest.mark.parametrize("plant", [
    "dropped-row", "extra-row", "jsonl-only", "sigma-both", "roundtrip", "skip-row", "summary",
    "bounds-flag", "trace-sigma", "path", "reachable",
])
def test_datasets_catches(datasets_run, plant):
    wl, out = datasets_run
    row = 100
    if plant == "dropped-row":
        _rewrite(wl.jobs["sweep", "csv"][0], lambda lines: lines[:50] + lines[51:])
    elif plant == "extra-row":
        for fmt in ("csv", "jsonl"):
            _rewrite(wl.jobs["sweep", fmt][0], lambda lines: lines + lines[-1:])
    elif plant == "jsonl-only":
        _edit_row(wl, "sweep", "jsonl", row, "sigma1_re", _float(wl, "sweep", row, "sigma1_re") + 1e-7)
    elif plant == "sigma-both":
        # a consistent perturbation of sigma1 and sigma2 that keeps the identity
        s1 = complex(_float(wl, "sweep", row, "sigma1_re"), _float(wl, "sweep", row, "sigma1_im"))
        s1b = s1 + 1e-7
        s2b = 1.0 / (3.0 * (1.0 - s1b))
        for fmt in ("csv", "jsonl"):
            for name, val in (("sigma1_re", s1b.real), ("sigma2_re", s2b.real),
                              ("sigma2_im", s2b.imag)):
                _edit_row(wl, "sweep", fmt, row, name, val if fmt == "jsonl" else format(val, ".17g"))
    elif plant == "roundtrip":
        # same value, but not the 17-digit rendering
        cell = format(_float(wl, "sweep", row, "w_im"), ".17g")
        assert "." in cell
        _edit_row(wl, "sweep", "csv", row, "w_im", cell + "0")
    elif plant == "skip-row":
        lines = Path(wl.jobs["sweep", "csv"][0]).read_text().splitlines()[1:]
        i = next(k for k, line in enumerate(lines) if ",skip," in line)
        for fmt in ("csv", "jsonl"):
            _edit_row(wl, "sweep", fmt, i, "path", "interior")
    elif plant == "summary":
        code, text = out["sweep", "csv"]
        s = json.loads(text)
        s["bounds_violations"] += 1
        out = {**out, ("sweep", "csv"): (code, json.dumps(s))}
    elif plant == "bounds-flag":
        for fmt, val in (("csv", "false"), ("jsonl", False)):
            _edit_row(wl, "sweep", fmt, row, "bounds_ok", val)
    elif plant == "trace-sigma":
        x = _float(wl, "boundary", row, "sigma1_im") * (1 + 1e-8)
        for fmt in ("csv", "jsonl"):
            _edit_row(wl, "boundary", fmt, row, "sigma1_im", x if fmt == "jsonl" else format(x, ".17g"))
    elif plant == "path":
        for fmt in ("csv", "jsonl"):
            _edit_row(wl, "sweep", fmt, row, "path", "boundary")
    else:
        for fmt, val in (("csv", "false"), ("jsonl", False)):
            _edit_row(wl, "sweep", fmt, row, "reachable", val)
    assert wl.check(out).errors


def test_trace_peak_check():
    steps, t_max = 300, 20.0
    ts = np.concatenate([-np.linspace(t_max, reference.SQRT3, steps),
                         np.linspace(reference.SQRT3, t_max, steps)])
    im = np.array([reference.mp_ray_sigma1(float(t)).imag for t in ts])
    step = (t_max - reference.SQRT3) / (steps - 1)
    assert workloads.trace_peak_ok(ts, im, step)
    k = int(np.argmin(np.abs(ts + 2.0)))
    for planted in (np.delete(im, [k - 1, k, k + 1]), im + 1e-4, im - step * step / 4):
        tt = ts if len(planted) == len(ts) else np.delete(ts, [k - 1, k, k + 1])
        assert not workloads.trace_peak_ok(tt, planted, step)
