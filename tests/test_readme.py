"""The Python blocks of README.md, run as written, so that the Library
section fails the suite when the package's API drifts from it (test_cli
guards the INI block the same way)."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    """The blocks run in order in one namespace, from a scratch working
    directory, where the study block writes its reports."""
    blocks = re.findall(r"^```python\n(.*?)^```",
                        README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) == 3
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    out = capsys.readouterr().out
    assert out.startswith("[")  # the printed eigenvalues
    assert "total time" in out  # the study's summary
    for name in ("report.csv", "report.json", "timings.json"):
        assert (tmp_path / "results" / name).is_file()
