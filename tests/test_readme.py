"""The README's examples run as written."""

import re
from pathlib import Path

from slrlab import cli_io

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(lang: str) -> str:
    blocks = re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)
    assert len(blocks) == 1, f"expected one {lang} block in README.md, found {len(blocks)}"
    return blocks[0]


def test_readme_quick_start_runs(capsys):
    exec(compile(_block("python"), "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_readme_config_example_validates(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SLRLAB_SEED", raising=False)
    path = tmp_path / "example.ini"
    path.write_text(_block("ini"))
    assert cli_io.main(["validate", "--config", str(path)]) == 0
    assert "holds=yes" in capsys.readouterr().out
