"""The README's library tour runs as written and gives the values it states."""

import contextlib
import io
import json
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_tour() -> str:
    """The ```python block under the README's "## Library tour" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library tour\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_tour_runs_and_gives_the_recall_it_states():
    tour = _library_tour()
    stated = re.search(r"recall\.expectation\(\)\s+# (\d+\.\d+)", tour).group(1)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        exec(compile(tour, str(README), "exec"), namespace)
    decimals = len(stated.split(".")[1])
    assert round(namespace["recall"].expectation(), decimals) == float(stated) == 0.806
    rows = [line.split() for line in printed.getvalue().splitlines()]
    assert [row[0] for row in rows] == ["accuracy", "precision", "recall", "f1"]
    assert round(float(rows[2][1]), decimals) == float(stated)
    config = namespace["cm"].EstimateConfig(alpha=0.05)
    assert namespace["run"].config == config
    assert json.loads(namespace["text"])["config"] == {
        "alpha": 0.05, "method": "exact", "metrics": list(config.metrics)
    }
