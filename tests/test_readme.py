import contextlib
import io
import re
from pathlib import Path

from pulsespec import cli

README = Path(__file__).parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    l2_rel = float(out.getvalue().splitlines()[0])
    assert l2_rel < 0.05


def test_config_example_runs(tmp_path):
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    text = re.search(r"```ini\n(.*?)```", section, re.DOTALL).group(1)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert cli.main(["spectrum", "--config", str(cfg),
                     "--output-dir", str(tmp_path / "out")]) == 0
