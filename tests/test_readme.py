"""The README's library quick tour and CLI examples run as written."""

import re
import shlex
from pathlib import Path

from click.testing import CliRunner

from lehmann.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_quick_tour_runs(capsys):
    blocks = _blocks("python")
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def test_cli_examples_run(tmp_path, monkeypatch):
    (config,) = _blocks("ini")
    (tmp_path / "study.cfg").write_text(config, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line)[1:] for block in _blocks("sh")
                for line in block.splitlines() if line.startswith("lehmann ")]
    assert commands, "README has no lehmann example"
    runner = CliRunner()
    for args in commands:
        res = runner.invoke(main, args)
        assert res.exit_code == 0, (args, res.output)
