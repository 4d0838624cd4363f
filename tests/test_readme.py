"""The README's library quick tour and CLI examples run as written."""

import re
import shlex
from dataclasses import fields
from pathlib import Path

from click.testing import CliRunner

from lehmann import SimConfig
from lehmann.base_dist import BaseDistribution
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


def test_config_example_keys_are_the_config_fields_in_order():
    (config,) = _blocks("ini")
    keys = [line.partition("=")[0].strip() for line in config.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]
    assert keys == [f.name for f in fields(SimConfig)]


def test_family_section_names_the_kernel_contract():
    # every kernel the section names exists, and every kernel a family
    # implements or may override is named
    text = README.read_text(encoding="utf-8")
    section = text.split("## Adding a base family", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<!\w)_[a-z]\w*", section))
    assert named and all(hasattr(BaseDistribution, name) for name in named), named
    kernels = {name for name, value in vars(BaseDistribution).items()
               if name.startswith("_") and not name.startswith("__") and callable(value)}
    assert {"_log_hazard_and_kernel", "_quantile_sf"} <= kernels
    assert kernels <= named, kernels - named
