"""The README's code runs as printed."""

import contextlib
import io
import os
import re

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
