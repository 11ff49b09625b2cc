"""The README's library tour runs as written against the installed package."""

import pathlib
import re

from upbkit import NoiseEffect

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert isinstance(namespace["scan"].verdicts[0], NoiseEffect)
