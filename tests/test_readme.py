"""The README's code runs as printed."""

import contextlib
import io
import os
import re
from dataclasses import replace

from ltc_accel.harness import ExperimentConfig, parse_config

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def test_readme_python_blocks_run_in_order():
    with open(README, encoding="utf-8") as f:
        blocks = re.findall(r"^```python\n(.*?)^```$", f.read(), re.M | re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        for block in blocks:
            exec(compile(block, README, "exec"), namespace)
    # the minimal use: 26 denoiser calls on the 40-step grid
    assert out.getvalue().splitlines()[0].startswith("26 ")


def test_readme_ini_block_parses(tmp_path):
    with open(README, encoding="utf-8") as f:
        blocks = re.findall(r"^```ini\n(.*?)^```$", f.read(), re.M | re.S)
    assert len(blocks) == 1
    ini = tmp_path / "readme.ini"
    ini.write_text(blocks[0], encoding="utf-8")
    assert parse_config(str(ini)) == replace(
        ExperimentConfig(), seeds=(0, 1, 2, 3), out="results")
