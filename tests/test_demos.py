"""Smoke test: every Python demo runs to completion against the source tree,
and the CLI workflow script's commands parse under the current flags."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from abusenet.cli import _configs, build_parser

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(ROOT.glob("demos/0[1-5]_*.py"))
CLI_WORKFLOW = ROOT / "demos" / "06_cli_workflow.sh"


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]


def test_cli_workflow_commands_parse(tmp_path):
    """Each `abusenet` line of the workflow script, with its variables
    expanded, parses; training commands also build valid configs. Running
    the script itself trains models and needs an installed CLI."""
    result = subprocess.run(["bash", "-n", str(CLI_WORKFLOW)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    script = CLI_WORKFLOW.read_text().replace("\\\n", " ")
    sizes = re.search(r"^SIZES=\((.*?)\)", script, re.MULTILINE | re.DOTALL).group(1)
    script = script.replace('"${SIZES[@]}"', sizes).replace("$WORK", str(tmp_path))
    commands = [shlex.split(line) for line in script.splitlines() if line.startswith("abusenet ")]
    assert len(commands) == 5
    for argv in commands:
        args = build_parser().parse_args(argv[1:])
        if args.command in ("train", "ablate"):
            _configs(args)
