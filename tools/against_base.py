"""Run one fixed list of ratiolab commands on a base checkout and on this one.

Usage: python tools/against_base.py BASE, BASE being a checkout root with src/ratiolab.
Each run has a fresh directory and only its tree's src/ on PYTHONPATH. A JSON line per
command says whether exit statuses, stdout, stderr and files match, and gives the claims
whose verify line moved and other differences' first lines. Exit 1 when an exit status or
claim verdict differs, else 0; 2 when BASE lacks src/ratiolab or a run imports another tree."""

import argparse
import itertools
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HEAD = Path(__file__).resolve().parent.parent
COMMANDS = (
    # the CLI default sample count, the benchmark's round, a large run, each group
    *(f"verify all --samples {n} --seed {s}" for n, s in ((100000, 1729), (20000, 1), (10**6, 1729))),
    *(f"verify {g} --samples 20000 --seed 1" for g in "L1 L2 T1 T2 T3 T4 T5 HYP".split()),
    "probe re-sharpness", "probe re-sharpness --t -1000", "probe im-extremal", "compute -4-1i -2+8i 4+1i",
    # a sample, near-equilateral, a sliver of relative area 2.5e-4, collinear (exits 1)
    *(f"ellipse {r}" for r in ("-4-1i -2+8i 4+1i", "-1 0.0001+1.7320508i 1", "-1 0.1+0.001i 1", "-1 0 1")),
    # either side of the gate's collinear band, area 4e-9 at diameter 2
    *(f"{cmd} -1 0.5+{a}e-9i 1" for cmd in ("compute", "ellipse") for a in (2, 5)),
    # the last boundary is the ray route at its magnitude limit
    *(f"{cmd} --format {fmt} --out data.{fmt}" for cmd in ("sweep --resolution 201", "boundary --steps 10000",
      "boundary --tmin 1e99 --tmax 1e100 --steps 10") for fmt in ("csv", "jsonl")),
)
WRONG_TREE = 97  # no ratiolab command exits with it
RUNNER = f"""import sys, pathlib, ratiolab.cli
if pathlib.Path(sys.argv[1]).resolve() not in pathlib.Path(ratiolab.__file__).resolve().parents:
    sys.exit(print(ratiolab.__file__, file=sys.stderr) or {WRONG_TREE})
sys.exit(ratiolab.cli.main(sys.argv[2:]))"""


def run(src: Path, command: str) -> tuple:
    """(exit status, {"stdout": bytes, "stderr": bytes, file name: bytes})."""
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, "-c", RUNNER, str(src), *command.split()], cwd=cwd,
                              capture_output=True, env={**os.environ, "PYTHONPATH": str(src)})
        if proc.returncode == WRONG_TREE:
            print(f"{command}: ratiolab from {proc.stderr.decode().strip()}, not {src}", file=sys.stderr)
            sys.exit(2)
        return proc.returncode, {"stdout": proc.stdout, "stderr": proc.stderr,
                                 **{p.name: p.read_bytes() for p in Path(cwd).iterdir()}}


def first_diff(base: bytes, head: bytes) -> dict:
    pairs = itertools.zip_longest(base.decode().split("\n"), head.decode().split("\n"))
    return next({"line": n, "base": b, "head": h} for n, (b, h) in enumerate(pairs, 1) if b != h)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout root holding src/ratiolab")
    base = parser.parse_args(argv).base.resolve()
    if not (base / "src" / "ratiolab" / "__init__.py").is_file():
        print(f"no ratiolab sources under {base / 'src'}", file=sys.stderr)
        return 2
    counts = dict.fromkeys(("identical", "moved", "refused"), 0)
    with ThreadPoolExecutor(2) as pool:  # the two trees' runs of a command side by side
        for command in COMMANDS:
            (b_status, b_out), (h_status, h_out) = pool.map(lambda t: run(t / "src", command), (base, HEAD))
            differ = [k for k in sorted(b_out.keys() | h_out.keys()) if b_out.get(k) != h_out.get(k)]
            line = {"command": command, "status": [b_status, h_status], "stdout": "stdout" not in differ,
                    "stderr": "stderr" not in differ, "files": not set(differ) - {"stdout", "stderr"}}
            refused = b_status != h_status
            if command.startswith("verify"):  # its stdout is reported by claim
                b_lines, h_lines = (out.pop("stdout").decode().splitlines() for out in (b_out, h_out))
                verdicts = [[(r["claim"], r["passed"]) for r in map(json.loads, x)] for x in (b_lines, h_lines)]
                refused |= verdicts[0] != verdicts[1]
                line["moved_claims"] = [json.loads(h or b)["claim"]
                                        for b, h in itertools.zip_longest(b_lines, h_lines) if b != h]
            line["first_diff"] = {k: first_diff(b_out.get(k, b""), h_out.get(k, b""))
                                  for k in differ if k in b_out | h_out}
            print(json.dumps(line), flush=True)
            counts["refused" if refused else "moved" if differ else "identical"] += 1
    print(json.dumps({"commands": len(COMMANDS), **counts}), flush=True)
    return 1 if counts["refused"] else 0


if __name__ == "__main__":
    sys.exit(main())
