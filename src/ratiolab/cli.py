"""Command-line front end.

Subcommands: compute, verify, sweep, boundary, ellipse, probe. All numeric
output is JSON with 17-significant-digit floats; identical arguments (and,
for verify, seed) produce byte-identical stdout and files.

Exit codes: 0 success, 1 usage or parse error, 2 undefined-ratio input,
3 failed claim, 4 I/O failure.

Complex literals use `i`, no spaces: `-1`, `2i`, `-4-1i`, `3.5e-2+1e3i`.
Only verify draws random samples; its seed comes from --seed, else the
RATIOLAB_SEED environment variable, else the published default 1729.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .cubic import (
    classify_configuration,
    critical_points_direct,
    normalize,
    order_roots,
)
from .errors import RatioLabError, UndefinedRatioError
from .kernel import ToleranceConfig
from .mapping import emit_dataset, ratio_angles, steiner_inellipse, sweep_w_grid, trace_boundary
from .ratios import identity_residual, ratios_direct
from .records import fmt_float
from .theorems import (
    CLAIM_GROUPS,
    DEFAULT_SEED,
    TheoremReport,
    extremal_family_im,
    run_claims,
    sharpness_probe_re,
)

__all__ = ["main", "parse_complex", "build_parser", "CliConfig"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNDEFINED = 2
EXIT_CLAIM_FAILED = 3
EXIT_IO = 4

_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX = re.compile(
    rf"^(?:(?P<re1>[+-]?{_NUM})(?P<im1>[+-]{_NUM})i"
    rf"|(?P<im2>[+-]?{_NUM})i"
    rf"|(?P<re2>[+-]?{_NUM}))$"
)


def parse_complex(text: str) -> complex:
    """Parse `a`, `bi`, or `a+bi` (sign required between the parts)."""
    m = _COMPLEX.match(text.strip())
    if m is None:
        raise ValueError(f"not a complex literal: {text!r} (expected forms: -1, 2i, -4-1i)")
    if m.group("re1") is not None:
        return complex(float(m.group("re1")), float(m.group("im1")))
    if m.group("im2") is not None:
        return complex(0.0, float(m.group("im2")))
    return complex(float(m.group("re2")), 0.0)


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 on usage errors and accepts complex
    literals like -4-1i as positionals."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[\d.]")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _complex_json(z: complex) -> str:
    return '{"re": ' + fmt_float(z.real) + ', "im": ' + fmt_float(z.imag) + "}"


def _report_json(rep: TheoremReport) -> str:
    parts = [
        f'"claim": "{rep.claim_id}"',
        f'"passed": {"true" if rep.passed else "false"}',
        f'"margin": {fmt_float(rep.margin)}',
        f'"note": "{rep.note}"',
    ]
    if rep.witness is None:
        parts.append('"witness": null')
    else:
        w = rep.witness
        wparts = [
            f'"w": {_complex_json(w.w)}',
            f'"sigma1": {_complex_json(w.sigma1) if w.sigma1 is not None else "null"}',
            f'"sigma2": {_complex_json(w.sigma2) if w.sigma2 is not None else "null"}',
            f'"path": "{w.path}"',
            f'"classification": "{w.classification}"',
        ]
        parts.append('"witness": {' + ", ".join(wparts) + "}")
    return "{" + ", ".join(parts) + "}"


@dataclass(frozen=True)
class CliConfig:
    """Resolved run configuration: tolerances, seed, output destination.

    The seed falls back to the RATIOLAB_SEED environment variable and then
    to the published constant DEFAULT_SEED, so argument-free runs are
    reproducible.
    """

    tol: ToleranceConfig
    seed: int
    out: Optional[str] = None
    fmt: str = "csv"

    @classmethod
    def from_args(cls, args) -> "CliConfig":
        tol = ToleranceConfig(
            eq_tol=args.eq_tol,
            boundary_tol=args.boundary_tol,
            identity_tol=args.identity_tol,
        )
        seed = getattr(args, "seed", None)
        if seed is None:
            env = os.environ.get("RATIOLAB_SEED")
            if env is not None:
                try:
                    seed = int(env)
                except ValueError as exc:
                    raise RatioLabError(
                        f"RATIOLAB_SEED must be an integer, got {env!r}"
                    ) from exc
        if seed is None:
            seed = DEFAULT_SEED
        return cls(
            tol=tol,
            seed=seed,
            out=getattr(args, "out", None),
            fmt=getattr(args, "format", "csv"),
        )


def _add_tol_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eq-tol", type=float, default=1e-9, help="equality/ordering band")
    p.add_argument("--boundary-tol", type=float, default=1e-9, help="cut/ray distance band")
    p.add_argument("--identity-tol", type=float, default=1e-10, help="identity residual band")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ratiolab",
        description=(
            "Ratio vectors of cubics with complex roots: compute, verify, map. "
            "Complex literals are 'a', 'bi', or 'a+bi' with an optional leading sign, "
            "a mandatory sign between the parts, and no spaces: -1, 2i, -4-1i, 3.5e-2+1e3i."
        ),
        epilog=(
            "Exit codes: 0 success, 1 usage/parse error, 2 undefined-ratio input, "
            "3 failed claim, 4 I/O failure. verify seed: --seed, else RATIOLAB_SEED, else 1729."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="ratio vector of three roots")
    p.add_argument("roots", nargs=3, help="complex literals, e.g. -1 1.7320508i 1")
    _add_tol_args(p)

    p = sub.add_parser("verify", help="run the claim suite")
    p.add_argument("suite", nargs="?", default="all", help=f"one of {', '.join(CLAIM_GROUPS)}")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=None)
    _add_tol_args(p)

    p = sub.add_parser("sweep", help="sample f and g on a w-plane grid")
    p.add_argument("--re-range", type=float, nargs=2, default=(-3.0, 3.0), metavar=("LO", "HI"))
    p.add_argument("--im-range", type=float, nargs=2, default=(-3.0, 3.0), metavar=("LO", "HI"))
    p.add_argument("--resolution", type=int, default=101)
    p.add_argument("--out", default="sweep_dataset.csv")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    _add_tol_args(p)

    p = sub.add_parser("boundary", help="trace the ray formulas")
    p.add_argument("--tmin", type=float, default=1.7320508075688772)
    p.add_argument("--tmax", type=float, default=100.0)
    p.add_argument("--steps", type=int, default=10000)
    p.add_argument("--out", default="boundary_dataset.csv")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    _add_tol_args(p)

    p = sub.add_parser("ellipse", help="midpoint inellipse vs critical points")
    p.add_argument("roots", nargs=3)
    _add_tol_args(p)

    p = sub.add_parser("probe", help="sharpness families")
    p.add_argument("family", choices=("re-sharpness", "im-extremal"))
    p.add_argument("--t", type=float, default=1000.0, help="ray parameter (re-sharpness)")
    p.add_argument("--z0", default="1-4i", help="strip parameter (im-extremal)")
    p.add_argument("--c", default="0", help="translation (im-extremal)")
    p.add_argument("--sign", choices=("+", "-"), default="+")
    _add_tol_args(p)

    return parser


def _cmd_compute(args, cfg: CliConfig) -> int:
    tol = cfg.tol
    roots = [parse_complex(s) for s in args.roots]
    c = order_roots(*roots, tol)
    rv = ratios_direct(c)
    n = normalize(c)
    cls = classify_configuration(c, tol)
    fields = [
        f'"sigma1": {_complex_json(rv.sigma1)}',
        f'"sigma2": {_complex_json(rv.sigma2)}',
        f'"w": {_complex_json(n.w)}',
        f'"classification": "{cls.value}"',
        f'"path": "{rv.path.value}"',
        f'"identity_residual": {fmt_float(identity_residual(rv))}',
    ]
    print("{" + ", ".join(fields) + "}")
    return EXIT_OK


def _cmd_verify(args, cfg: CliConfig) -> int:
    reports = run_claims(args.suite, samples=args.samples, seed=cfg.seed, tol=cfg.tol)
    for rep in reports:
        print(_report_json(rep))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CLAIM_FAILED


def _cmd_sweep(args, cfg: CliConfig) -> int:
    records = sweep_w_grid(tuple(args.re_range), tuple(args.im_range), args.resolution, cfg.tol)
    count = emit_dataset(records, cfg.out, cfg.fmt)
    skipped = sum(1 for r in records if r.path == "skip")
    violations = sum(1 for r in records if r.bounds_ok is False)
    print(
        '{"rows": %d, "skipped": %d, "bounds_violations": %d, "out": "%s"}'
        % (count, skipped, violations, cfg.out)
    )
    return EXIT_OK


def _cmd_boundary(args, cfg: CliConfig) -> int:
    records = trace_boundary(args.tmin, args.tmax, args.steps, cfg.tol)
    count = emit_dataset(records, cfg.out, cfg.fmt)
    violations = sum(1 for r in records if r.bounds_ok is False)
    print(
        '{"rows": %d, "bounds_violations": %d, "out": "%s"}'
        % (count, violations, cfg.out)
    )
    return EXIT_OK


def _cmd_ellipse(args, cfg: CliConfig) -> int:
    tol = cfg.tol
    roots = [parse_complex(s) for s in args.roots]
    c = order_roots(*roots, tol)
    ell = steiner_inellipse(c, tol)
    za, zb = critical_points_direct(c.w1, c.w2, c.w3)
    zs = sorted((za, zb), key=lambda z: (z.real, z.imag))
    mismatch = max(abs(ell.focus1 - zs[0]), abs(ell.focus2 - zs[1]))
    th1, th2 = ratio_angles(c)
    fields = [
        f'"center": {_complex_json(ell.center)}',
        f'"focus1": {_complex_json(ell.focus1)}',
        f'"focus2": {_complex_json(ell.focus2)}',
        f'"semi_major": {fmt_float(ell.semi_major)}',
        f'"semi_minor": {fmt_float(ell.semi_minor)}',
        f'"critical_points": [{_complex_json(zs[0])}, {_complex_json(zs[1])}]',
        f'"focus_mismatch": {fmt_float(mismatch)}',
        f'"theta1": {fmt_float(th1)}',
        f'"theta2": {fmt_float(th2)}',
    ]
    print("{" + ", ".join(fields) + "}")
    return EXIT_OK


def _cmd_probe(args, cfg: CliConfig) -> int:
    tol = cfg.tol
    if args.family == "re-sharpness":
        c, rv = sharpness_probe_re(args.t, tol)
        param = f'"t": {fmt_float(args.t)}'
    else:
        sign = +1 if args.sign == "+" else -1
        c, rv = extremal_family_im(parse_complex(args.z0), parse_complex(args.c), sign, tol)
        param = f'"z0": {_complex_json(parse_complex(args.z0))}, "sign": "{args.sign}"'
    fields = [
        f'"family": "{args.family}"',
        param,
        f'"roots": [{_complex_json(c.w1)}, {_complex_json(c.w2)}, {_complex_json(c.w3)}]',
        f'"sigma1": {_complex_json(rv.sigma1)}',
        f'"sigma2": {_complex_json(rv.sigma2)}',
    ]
    print("{" + ", ".join(fields) + "}")
    return EXIT_OK


_COMMANDS = {
    "compute": _cmd_compute,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "boundary": _cmd_boundary,
    "ellipse": _cmd_ellipse,
    "probe": _cmd_probe,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = CliConfig.from_args(args)
        return _COMMANDS[args.command](args, cfg)
    except UndefinedRatioError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_UNDEFINED
    except (ValueError, RatioLabError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
