"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == block.count("print(")
    assert (tmp_path / "trials.csv").exists()
