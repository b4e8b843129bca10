"""The files shipped beside the package: the demo dataset and the README."""

import re
import runpy
from pathlib import Path

import numpy as np
import pytest

from cpmas.fitting import load_buildup

ROOT = Path(__file__).resolve().parents[1]


def test_generator_reproduces_the_demo_dataset():
    # importing the generator builds its data and writes nothing; the
    # committed file keeps the bytes the README and CI fits were run on,
    # one magnetization of which differs from today's model by round-off
    committed = load_buildup(ROOT / "data" / "synthetic_buildup.csv")
    generated = runpy.run_path(
        str(ROOT / "data" / "generate_synthetic_buildup.py"))["data"]
    assert np.array_equal(generated.times_us(), committed.source_times_us)
    assert np.max(np.abs(generated.magnetizations
                         - committed.magnetizations)) <= 2e-16


@pytest.mark.filterwarnings("error")
def test_readme_python_runs(monkeypatch, capsys):
    # from the checkout root, where the example's data path resolves
    blocks = re.findall(r"```python\n(.*?)```",
                        (ROOT / "README.md").read_text(encoding="utf-8"),
                        re.S)
    assert blocks
    monkeypatch.chdir(ROOT)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("True ")
