"""tools/against_base.py: one command list run on a base tree and on this one."""

import argparse
import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from ratiolab import CLAIM_GROUPS
from ratiolab.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("against_base", ROOT / "tools" / "against_base.py")
against_base = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(against_base)

CHEAP = ("verify L1 --samples 200 --seed 1", "compute -4-1i -2+8i 4+1i", "boundary --steps 10 --out b.csv")


def compare(capsys, monkeypatch, base, commands=CHEAP):
    """The tool's exit status and its printed lines: one per command, then the counts."""
    monkeypatch.setattr(against_base, "COMMANDS", commands)
    code = against_base.main([str(base)])
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    return code, lines[:-1], lines[-1]


def base_copy(tmp_path):
    """A base tree: a copy of this checkout's src/."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def plant(base, module, old, new):
    """Replace one spelling in one module of the base tree."""
    path = base / "src" / "ratiolab" / module
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    return base


def test_this_checkout_against_itself_is_identical(capsys, monkeypatch):
    code, lines, counts = compare(capsys, monkeypatch, ROOT)
    assert code == 0
    assert counts == {"commands": 3, "identical": 3, "moved": 0, "refused": 0}
    for line in lines:
        assert line["status"] == [0, 0]
        assert line["stdout"] and line["stderr"] and line["files"] and line["first_diff"] == {}
    assert lines[0]["moved_claims"] == []


def test_moved_bytes_are_reported_not_refused(capsys, monkeypatch, tmp_path):
    # every float written with 16 significant digits instead of 17
    base = plant(base_copy(tmp_path), "records.py", ".17g", ".16g")
    code, (verify, compute, boundary), counts = compare(capsys, monkeypatch, base)
    assert code == 0
    assert counts == {"commands": 3, "identical": 0, "moved": 3, "refused": 0}
    assert not verify["stdout"] and verify["moved_claims"] == ["L1A", "L1B"]
    assert not compute["stdout"] and compute["first_diff"]["stdout"]["line"] == 1
    assert boundary["stdout"] and not boundary["files"]
    assert boundary["first_diff"]["b.csv"]["line"] == 2  # the header stays


@pytest.mark.parametrize("old, new, status", [
    # L2 passes only on a root exactly at -+2
    ("abs(roots[0] - where) <= 1e-9", "abs(roots[0] - where) < 0.0", [3, 0]),
    # a renamed claim: both exit 0
    ('("L2A", roots_a, -2.0)', '("L2X", roots_a, -2.0)', [0, 0]),
])
def test_a_moved_claim_id_or_verdict_is_refused(capsys, monkeypatch, tmp_path, old, new, status):
    base = plant(base_copy(tmp_path), "theorems.py", old, new)
    code, (line,), counts = compare(capsys, monkeypatch, base, ("verify L2 --samples 200 --seed 1",))
    assert code == 1
    assert counts["refused"] == 1
    assert line["status"] == status and line["moved_claims"][0] == "L2A"


def test_a_base_without_sources_exits_2(capsys, tmp_path):
    assert against_base.main([str(tmp_path)]) == 2
    assert "no ratiolab sources" in capsys.readouterr().err


def test_a_run_importing_ratiolab_from_another_tree_stops_the_tool(capsys, monkeypatch, tmp_path):
    # the base's interpreter puts this checkout's src/ first on sys.path
    base = base_copy(tmp_path)
    (base / "src" / "sitecustomize.py").write_text(f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n")
    monkeypatch.setattr(against_base, "COMMANDS", CHEAP[1:2])
    with pytest.raises(SystemExit) as stopped:
        against_base.main([str(base)])
    assert stopped.value.code == 2
    assert str(ROOT / "src" / "ratiolab") in capsys.readouterr().err


def test_the_list_covers_every_subcommand_and_claim_group():
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    argvs = [command.split() for command in against_base.COMMANDS]
    assert {argv[0] for argv in argvs} == set(subparsers.choices)
    assert {argv[1] for argv in argvs if argv[0] == "verify"} == set(CLAIM_GROUPS)
    assert len(set(against_base.COMMANDS)) == len(against_base.COMMANDS)
