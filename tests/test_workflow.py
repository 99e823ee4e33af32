"""CI's console-script step, run as the workflow writes it.

The step's `run: |` block is read from the workflow and run under
`bash -e`, with RUNNER_TEMP set to a temporary directory and a
`pulsespec` shim on PATH that runs `python -m pulsespec.cli` from this
checkout. Its `python -m pip install .` line is skipped: the shim stands
in for the installed console script.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
STEP = "Install the package and run its console script"
INSTALL = "python -m pip install ."


def step_lines(name: str) -> list[str]:
    """The lines of the literal `run: |` block of the step `name`."""
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    start = lines.index(f"      - name: {name}")
    run = next(i for i in range(start + 1, len(lines))
               if lines[i].strip() == "run: |")
    indent = len(lines[run]) - len(lines[run].lstrip()) + 2
    block = []
    for line in lines[run + 1:]:
        if line.strip() and not line.startswith(" " * indent):
            break
        block.append(line[indent:])
    return block


@pytest.mark.skipif(not (shutil.which("bash") and shutil.which("taskset")),
                    reason="the step needs bash and taskset")
@pytest.mark.parametrize("broken", [False, True],
                         ids=["as_written", "with_a_failing_cmp"])
def test_console_script_step_passes(tmp_path, broken):
    lines = step_lines(STEP)
    assert lines.count(INSTALL) == 1 and "diff -r sweep sweep_one_cpu" in lines
    assert 'test -z "$(ls -A alias)"' in lines
    assert ("pulsespec validate --config alias.cfg --output-dir "
            "alias_validate || code=$?") in lines
    assert 'test -z "$(ls -A alias_validate)"' in lines
    lines.remove(INSTALL)
    if broken:
        # a command that fails must fail the step, wherever it stands
        at = lines.index('cd "$RUNNER_TEMP"') + 1
        lines[at:at] = ["printf a > a.txt", "printf b > b.txt",
                        "cmp a.txt b.txt"]
    shim = tmp_path / "bin" / "pulsespec"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m pulsespec.cli '
                    '"$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ, RUNNER_TEMP=str(tmp_path),
               PATH=os.pathsep.join([str(shim.parent), os.environ["PATH"]]),
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src")]
                   + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    result = subprocess.run(["bash", "-e", "-c", "\n".join(lines)], env=env,
                            capture_output=True, text=True, timeout=300)
    assert (result.returncode != 0) == broken, result.stderr
    assert (tmp_path / "sweep_one_cpu").is_dir() != broken
    if not broken:
        for name in ("alias", "alias_validate"):
            assert (tmp_path / name).is_dir()
            assert not any((tmp_path / name).iterdir())
