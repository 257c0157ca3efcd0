import json
import subprocess
import sys

import numpy as np
import pytest

from ratiolab import theorems
from ratiolab.cli import main, parse_complex


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    for line in captured.out.splitlines():
        json.loads(line)  # every stdout line is one JSON value
    return code, captured.out, captured.err


def test_parse_complex_grammar():
    assert parse_complex("-1") == -1
    assert parse_complex("2i") == 2j
    assert parse_complex("-4-1i") == -4 - 1j
    assert parse_complex("-2+8i") == -2 + 8j
    assert parse_complex("3.5e-2+1e3i") == complex(0.035, 1000.0)
    assert parse_complex("1.7320508i") == 1.7320508j
    for bad in ("", "i", "1+", "1 + 2i", "2j", "abc"):
        with pytest.raises(ValueError):
            parse_complex(bad)


def test_compute_real_roots(capsys):
    code, out, _ = run_cli(capsys, "compute", "-1", "0", "1")
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["sigma1"]["re"] - 0.4226497) < 1e-6
    assert abs(obj["sigma2"]["re"] - 0.5773503) < 1e-6
    assert obj["classification"] == "collinear"
    assert obj["identity_residual"] < 1e-12
    assert obj["w"]["re"] == 0.0


def test_compute_equilateral_full_precision(capsys):
    code, out, _ = run_cli(capsys, "compute", "-1", "1.7320508075688772i", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["path"] == "coincident"
    assert abs(obj["sigma1"]["re"] - obj["sigma2"]["re"]) < 1e-15
    assert abs(obj["sigma1"]["im"] - obj["sigma2"]["im"]) < 1e-15
    assert abs(obj["sigma1"]["re"] - 0.5) < 1e-12
    assert abs(obj["sigma1"]["im"] + 0.2886751345948129) < 1e-12


def test_compute_truncated_equilateral_literal(capsys):
    # the 8-digit literal sits just off the tip: near-coincident, values
    # agree with the idealized 0.5 - 0.2886751 i only to ~1e-4
    code, out, _ = run_cli(capsys, "compute", "-1", "1.7320508i", "1")
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["sigma1"]["re"] - 0.5) < 1e-3
    assert abs(obj["sigma1"]["im"] + 0.2886751) < 1e-3


def test_compute_scale_invariant_gate(capsys):
    # ratios do not change under positive scaling, and neither does the gate
    code, out_tiny, _ = run_cli(capsys, "compute", "-1e-10", "0", "1e-10")
    assert code == 0
    code, out_unit, _ = run_cli(capsys, "compute", "-1", "0", "1")
    assert code == 0
    tiny, unit = json.loads(out_tiny), json.loads(out_unit)
    for key in ("sigma1", "sigma2"):
        assert abs(tiny[key]["re"] - unit[key]["re"]) <= 1e-12
        assert abs(tiny[key]["im"] - unit[key]["im"]) <= 1e-12
    assert tiny["classification"] == unit["classification"] == "collinear"
    assert tiny["path"] == unit["path"]


def test_compute_vertical_middle_exit_2(capsys):
    code, out, err = run_cli(capsys, "compute", "-1", "2i", "1")
    assert code == 2
    assert "critical points have equal real parts" in err


def test_compute_bad_literal_exit_1(capsys):
    for literal in ("zzz", 'x"y'):
        code, _, err = run_cli(capsys, "compute", "-1", literal, "1")
        assert code == 1
        assert "complex literal" in json.loads(err)["error"]


def test_compute_usage_error_exit_1(capsys):
    code, _, _ = run_cli(capsys, "compute", "-1", "0")
    assert code == 1


def test_verify_l2(capsys):
    code, out, _ = run_cli(capsys, "verify", "L2", "--samples", "100")
    assert code == 0
    lines = out.strip().splitlines()
    objs = [json.loads(line) for line in lines]
    assert [o["claim"] for o in objs] == ["L2A", "L2B"]
    assert all(o["passed"] for o in objs)
    assert all(o["margin"] <= 1e-9 for o in objs)


def _reject(constant):
    raise ValueError(f"non-JSON constant {constant}")


def test_verify_failed_l2_prints_strict_json(capsys, monkeypatch):
    # A and B without a sign change: the scan finds no root, both claims
    # fail with an infinite margin, which verify writes as null
    monkeypatch.setattr(theorems, "lemma2_expressions", lambda t: (np.ones_like(t), np.ones_like(t)))
    code, out, _ = run_cli(capsys, "verify", "L2", "--samples", "100")
    assert code == 3
    objs = [json.loads(line, parse_constant=_reject) for line in out.splitlines()]
    assert [(o["claim"], o["passed"], o["margin"]) for o in objs] == [
        ("L2A", False, None),
        ("L2B", False, None),
    ]


def test_verify_t3_margin(capsys):
    code, out, _ = run_cli(capsys, "verify", "T3", "--samples", "1000", "--seed", "7")
    assert code == 0
    obj = json.loads(out.strip().splitlines()[0])
    assert obj["claim"] == "T3" and obj["passed"]
    assert obj["margin"] >= -1e-12


def test_verify_unknown_suite_exit_1(capsys):
    code, _, _ = run_cli(capsys, "verify", "T99", "--samples", "10")
    assert code == 1


@pytest.mark.parametrize("suite, samples", [("T1", "0"), ("T3", "-5"), ("L2", "0")])
def test_verify_rejects_sample_counts_below_one(capsys, suite, samples):
    code, out, err = run_cli(capsys, "verify", suite, "--samples", samples)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert "samples" in json.loads(err)["error"]


def test_verify_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("RATIOLAB_SEED", "7")
    _, out_env, _ = run_cli(capsys, "verify", "T3", "--samples", "500")
    monkeypatch.delenv("RATIOLAB_SEED")
    _, out_flag, _ = run_cli(capsys, "verify", "T3", "--samples", "500", "--seed", "7")
    assert out_env == out_flag


def test_verify_refuses_a_negative_seed(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "verify", "L1", "--seed", "-1")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "seed must be a non-negative integer, got -1"
    monkeypatch.setenv("RATIOLAB_SEED", "-3")
    code, out, err = run_cli(capsys, "verify", "T4")
    assert (code, out) == (1, "")
    assert "seed" in json.loads(err)["error"]


def test_seed_env_read_by_verify_only(capsys, monkeypatch):
    monkeypatch.setenv("RATIOLAB_SEED", "abc")
    code, out, _ = run_cli(capsys, "compute", "-1", "0", "1")
    assert code == 0
    assert abs(json.loads(out)["sigma1"]["re"] - 0.4226497) < 1e-6
    code, _, err = run_cli(capsys, "verify", "T3", "--samples", "100")
    assert code == 1
    assert "RATIOLAB_SEED" in json.loads(err)["error"]


def test_sweep_writes_dataset(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--re-range", "-2", "2",
        "--im-range", "-2", "2",
        "--resolution", "9",
        "--out", str(out_file),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["rows"] == 81
    assert summary["bounds_violations"] == 0
    assert out_file.exists()
    header = out_file.read_text().splitlines()[0]
    assert header.startswith("w_re,w_im,sigma1_re")


def test_sweep_byte_identical_runs(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    code, out_a, _ = run_cli(capsys, "sweep", "--resolution", "11", "--out", str(a))
    assert code == 0
    code, out_b, _ = run_cli(capsys, "sweep", "--resolution", "11", "--out", str(b))
    assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert out_a.replace(str(a), "X") == out_b.replace(str(b), "X")


def test_sweep_summary_quotes_out_path(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "sweep", "--resolution", "3", "--out", 'a"b.csv')
    assert code == 0
    summary = json.loads(out)
    assert summary["out"] == 'a"b.csv'
    assert summary["rows"] == 9
    assert (tmp_path / 'a"b.csv').exists()


def test_sweep_unwritable_exit_4(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "sweep", "--resolution", "3", "--out", str(tmp_path / "no" / "dir" / "x.csv")
    )
    assert code == 4
    assert "error" in err


def test_boundary_dataset_peak(capsys, tmp_path):
    out_file = tmp_path / "rays.csv"
    code, out, _ = run_cli(
        capsys,
        "boundary",
        "--tmin", "1.7320509",
        "--tmax", "100",
        "--steps", "2000",
        "--out", str(out_file),
        "--format", "csv",
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["rows"] == 4000
    assert summary["bounds_violations"] == 0
    rows = out_file.read_text().splitlines()[1:]
    im_sigma1 = [float(r.split(",")[3]) for r in rows]
    assert abs(max(im_sigma1) - 1.0 / 3.0) < 1e-3
    w_im = [float(r.split(",")[1]) for r in rows]
    near_peak = w_im[im_sigma1.index(max(im_sigma1))]
    assert abs(near_peak + 2.0) < 0.1


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--re-range", "-1e300", "1e300", "--im-range", "-1e300", "1e300",
         "--resolution", "3"),
        ("sweep", "--re-range", "-1", "1", "--im-range", "-1", "1e300", "--resolution", "3"),
        ("boundary", "--tmax", "1e160", "--steps", "10"),
        ("boundary", "--tmax", "1e300", "--steps", "10"),
    ],
)
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_dataset_range_beyond_magnitude_limit_exit_1(capsys, tmp_path, argv, fmt):
    # 3 + w*w overflows above ~1.3e154; an existing --out file stays as it was
    out_file = tmp_path / f"keep.{fmt}"
    out_file.write_bytes(b"earlier run\n")
    code, out, err = run_cli(capsys, *argv, "--out", str(out_file), "--format", fmt)
    assert code == 1
    assert out == ""
    assert "1e+100" in json.loads(err)["error"]
    assert out_file.read_bytes() == b"earlier run\n"


def test_boundary_below_the_rays_exit_1(capsys, tmp_path):
    # t = sqrt(3) - 1e-9 is off the rays, where T3 fails; an existing --out
    # file stays as it was
    out_file = tmp_path / "keep.csv"
    out_file.write_bytes(b"earlier run\n")
    code, out, err = run_cli(capsys, "boundary", "--tmin", "1.732050806568877", "--tmax", "100",
                             "--steps", "500", "--out", str(out_file))
    assert code == 1
    assert out == ""
    assert "need sqrt(3) <= t_min" in json.loads(err)["error"]
    assert out_file.read_bytes() == b"earlier run\n"


def test_ellipse_matches_critical_points(capsys):
    code, out, _ = run_cli(capsys, "ellipse", "-4-1i", "-2+8i", "4+1i")
    assert code == 0
    obj = json.loads(out)
    assert obj["focus_mismatch"] < 1e-8
    assert abs(obj["focus1"]["re"] + 1.0) < 1e-8
    assert abs(obj["focus1"]["im"] - 4.0) < 1e-8


def test_ellipse_coincident_prints_the_double_point(capsys):
    # the gate's critical points, as compute labels them: z1 == z2 = i/sqrt(3)
    code, out, _ = run_cli(capsys, "ellipse", "-1", "1.7320508075688772i", "1")
    assert code == 0
    obj = json.loads(out)
    z = {"re": 0, "im": 0.5773502691896257}
    assert obj["critical_points"] == [z, z]
    assert obj["focus_mismatch"] < 2e-8


def test_ellipse_collinear_exit_1(capsys):
    code, _, err = run_cli(capsys, "ellipse", "-1", "0", "1")
    assert code == 1
    assert "collinear" in err


def test_probe_re_sharpness(capsys):
    code, out, _ = run_cli(capsys, "probe", "re-sharpness", "--t", "1000")
    assert code == 0
    obj = json.loads(out)
    assert obj["sigma1"]["re"] >= 0.666


def test_probe_im_extremal(capsys):
    code, out, _ = run_cli(capsys, "probe", "im-extremal", "--z0", "1-4i", "--sign", "+")
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["sigma1"]["im"] - 1.0 / 3.0) < 1e-12
    assert abs(obj["sigma1"]["re"] - 1.0 / 3.0) < 1e-12


def test_probe_im_extremal_scale_free(capsys):
    code, out, _ = run_cli(capsys, "probe", "im-extremal", "--z0", "1e-10-4e-10i")
    assert code == 0
    small = json.loads(out)
    _, out, _ = run_cli(capsys, "probe", "im-extremal", "--z0", "1-4i")
    unit = json.loads(out)
    for key in ("sigma1", "sigma2"):
        for part in ("re", "im"):
            assert abs(small[key][part] - unit[key][part]) <= 1e-12


def test_probe_constraint_violation_exit_1(capsys):
    code, _, err = run_cli(capsys, "probe", "im-extremal", "--z0", "1+4i", "--sign", "+")
    assert code == 1
    assert "half-strip" in err


def test_report_json_with_witness_parses():
    from ratiolab.cli import _report_fields
    from ratiolab.records import SampleRecord, to_json
    from ratiolab.theorems import TheoremReport

    wit = SampleRecord(0.5 + 2j, 0.1 + 0.2j, 0.4 - 0.1j, "interior", "generic")
    rep = TheoremReport("T1A", False, wit, -0.0125, 'synthetic "quoted" note')
    obj = json.loads(to_json(_report_fields(rep)))
    assert obj["claim"] == "T1A" and obj["passed"] is False
    assert obj["note"] == 'synthetic "quoted" note'
    # the witness object holds the record's five fields, in its order
    assert list(obj["witness"]) == ["w", "sigma1", "sigma2", "path", "classification"]
    assert obj["witness"]["w"] == {"re": 0.5, "im": 2.0}
    assert obj["witness"]["sigma2"]["re"] == 0.4
    assert obj["witness"]["path"] == "interior"
    assert obj["witness"]["classification"] == "generic"
    # a non-finite margin is written as null, so the line stays strict JSON
    for margin in (float("inf"), float("-inf"), float("nan")):
        rep = TheoremReport("L1A", True, None, margin, "")
        obj = json.loads(to_json(_report_fields(rep)), parse_constant=_reject)
        assert obj["margin"] is None
        assert obj["witness"] is None


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ratiolab.cli", "compute", "-1", "0", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert abs(obj["sigma1"]["re"] - 0.4226497) < 1e-6


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency
    code = "import sys, ratiolab; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
