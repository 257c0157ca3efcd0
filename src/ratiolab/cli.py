"""Command-line front end.

Subcommands: compute, verify, sweep, boundary, ellipse, probe. All numeric
output is JSON with 17-significant-digit floats; identical arguments (and,
for verify, seed) produce byte-identical stdout and files.

Exit codes: 0 success, 1 usage or parse error, 2 undefined-ratio input,
3 failed claim, 4 I/O failure.

Complex literals use `i`, no spaces: `-1`, `2i`, `-4-1i`, `3.5e-2+1e3i`.
Only verify draws random samples; its seed comes from --seed, else the
RATIOLAB_SEED environment variable, else the published default 1729, and
no other command reads RATIOLAB_SEED. Tolerances are fixed constants
(kernel.EQ_TOL, kernel.IDENTITY_TOL); no option sets them.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Optional, Sequence

from .cubic import (
    classify_configuration,
    critical_points_direct,
    normalize,
    order_roots,
)
from .errors import RatioLabError, UndefinedRatioError
from .mapping import emit_dataset, ratio_angles, steiner_inellipse, sweep_w_grid, trace_boundary
from .ratios import identity_residual, ratios_direct
from .records import to_json
from .theorems import (
    CLAIM_GROUPS,
    DEFAULT_SEED,
    TheoremReport,
    extremal_family_im,
    run_claims,
    sharpness_probe_re,
)

__all__ = ["main", "parse_complex", "build_parser"]

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


def _report_fields(rep: TheoremReport) -> dict:
    return {
        "claim": rep.claim_id,
        "passed": rep.passed,
        "margin": float(rep.margin),
        "note": rep.note,
        "witness": None if rep.witness is None else rep.witness._asdict(),
    }


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
            "3 failed claim, 4 I/O failure. verify seed: --seed, else RATIOLAB_SEED, else 1729. "
            "Tolerances are fixed (equality band 1e-9 on the scale-free configuration); "
            "no option sets them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="ratio vector of three roots")
    p.add_argument("roots", nargs=3, help="complex literals, e.g. -1 1.7320508i 1")

    p = sub.add_parser("verify", help="run the claim suite")
    p.add_argument("suite", nargs="?", default="all", help=f"one of {', '.join(CLAIM_GROUPS)}")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("sweep", help="sample f and g on a w-plane grid")
    p.add_argument("--re-range", type=float, nargs=2, default=(-3.0, 3.0), metavar=("LO", "HI"))
    p.add_argument("--im-range", type=float, nargs=2, default=(-3.0, 3.0), metavar=("LO", "HI"))
    p.add_argument("--resolution", type=int, default=101)
    p.add_argument("--out", default="sweep_dataset.csv")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    p = sub.add_parser("boundary", help="trace the ray formulas")
    p.add_argument("--tmin", type=float, default=1.7320508075688772)
    p.add_argument("--tmax", type=float, default=100.0)
    p.add_argument("--steps", type=int, default=10000)
    p.add_argument("--out", default="boundary_dataset.csv")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    p = sub.add_parser("ellipse", help="midpoint inellipse vs critical points")
    p.add_argument("roots", nargs=3)

    p = sub.add_parser("probe", help="sharpness families")
    p.add_argument("family", choices=("re-sharpness", "im-extremal"))
    p.add_argument("--t", type=float, default=1000.0, help="ray parameter (re-sharpness)")
    p.add_argument("--z0", default="1-4i", help="strip parameter (im-extremal)")
    p.add_argument("--c", default="0", help="translation (im-extremal)")
    p.add_argument("--sign", choices=("+", "-"), default="+")

    return parser


def _cmd_compute(args) -> int:
    c = order_roots(*(parse_complex(s) for s in args.roots))
    rv = ratios_direct(c)
    print(to_json({
        "sigma1": rv.sigma1,
        "sigma2": rv.sigma2,
        "w": normalize(c).w,
        "classification": classify_configuration(c).value,
        "path": rv.path.value,
        "identity_residual": identity_residual(rv),
    }))
    return EXIT_OK


def _verify_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("RATIOLAB_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError as exc:
        raise RatioLabError(f"RATIOLAB_SEED must be an integer, got {env!r}") from exc


def _cmd_verify(args) -> int:
    reports = run_claims(args.suite, samples=args.samples, seed=_verify_seed(args))
    for rep in reports:
        print(to_json(_report_fields(rep)))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CLAIM_FAILED


def _write_dataset(blocks, args, summary: tuple[str, ...]) -> int:
    """Stream the blocks to --out and print the summary line: rows, then the
    counts named in summary, then out. The counts are taken as the blocks
    pass on their way to the file."""
    counts = {"skipped": 0, "bounds_violations": 0}

    def counted():
        for block in blocks:
            counts["skipped"] += sum(row[6] == "skip" for row in block)
            counts["bounds_violations"] += sum(row[9] is False for row in block)
            yield block

    rows = emit_dataset(counted(), args.out, args.format)
    print(to_json({"rows": rows, **{k: counts[k] for k in summary}, "out": args.out}))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    blocks = sweep_w_grid(tuple(args.re_range), tuple(args.im_range), args.resolution)
    return _write_dataset(blocks, args, ("skipped", "bounds_violations"))


def _cmd_boundary(args) -> int:
    blocks = trace_boundary(args.tmin, args.tmax, args.steps)
    return _write_dataset(blocks, args, ("bounds_violations",))


def _cmd_ellipse(args) -> int:
    c = order_roots(*(parse_complex(s) for s in args.roots))
    ell = steiner_inellipse(c)
    za, zb = critical_points_direct(c.w1, c.w2, c.w3)
    zs = sorted((za, zb), key=lambda z: (z.real, z.imag))
    th1, th2 = ratio_angles(c)
    print(to_json({
        "center": ell.center,
        "focus1": ell.focus1,
        "focus2": ell.focus2,
        "semi_major": ell.semi_major,
        "semi_minor": ell.semi_minor,
        "critical_points": zs,
        "focus_mismatch": max(abs(ell.focus1 - zs[0]), abs(ell.focus2 - zs[1])),
        "theta1": th1,
        "theta2": th2,
    }))
    return EXIT_OK


def _cmd_probe(args) -> int:
    fields = {"family": args.family}
    if args.family == "re-sharpness":
        c, rv = sharpness_probe_re(args.t)
        fields["t"] = args.t
    else:
        z0 = parse_complex(args.z0)
        c, rv = extremal_family_im(z0, parse_complex(args.c), +1 if args.sign == "+" else -1)
        fields.update(z0=z0, sign=args.sign)
    fields.update(roots=c.roots, sigma1=rv.sigma1, sigma2=rv.sigma2)
    print(to_json(fields))
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
        return _COMMANDS[args.command](args)
    except (ValueError, RatioLabError, OSError) as exc:
        print(to_json({"error": str(exc)}), file=sys.stderr)
        if isinstance(exc, UndefinedRatioError):
            return EXIT_UNDEFINED
        return EXIT_IO if isinstance(exc, OSError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
