"""The README's library tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs(capsys):
    (tour,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(tour, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # the estimate's fidelity; the mean fidelity and its standard error; the trajectory's final purity
    assert [len(line.split()) for line in lines] == [1, 2, 1]
    assert all(0.0 <= float(value) <= 1.0 for line in lines for value in line.split())
