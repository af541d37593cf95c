"""The README's Python API example runs as written."""

import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_api_block():
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_python_api_block_runs():
    names = {}
    exec(compile(python_api_block(), str(README), "exec"), names)
    assert names["sv"].amenable is False  # 3 divides |S3| = 6
    assert names["vd"].tensor.coeffs == {
        g * 6 + names["grp"].inverses[g]: Fraction(1, 6) for g in range(6)}
    assert set(names["doc"]["checks"].values()) == {"pass"}
