"""The library and its CLI start on numpy alone, and a cold analytic pass
and a Monte-Carlo curve import nothing more.

Each check runs in a fresh interpreter, since this one has loaded scipy
for the tests' own oracles.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_python(code: str):
    """Run ``code`` in a new interpreter on this checkout and return the
    JSON it prints."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.mark.parametrize("module", ["jittervan", "jittervan.cli"])
def test_import_loads_no_scipy_and_no_masked_arrays(module):
    loaded = fresh_python(
        f"import json, sys\nimport {module}\nprint(json.dumps(sorted(sys.modules)))"
    )
    assert [name for name in loaded if name.startswith("scipy")] == []
    assert [name for name in loaded if name.split(".")[:2] == ["numpy", "ma"]] == []


def test_cold_pass_adds_no_module():
    added = fresh_python(
        """
import json, sys
import jittervan
before = set(sys.modules)
law = jittervan.uniform01()
for p in range(1, 6):
    jittervan.moment(p, 0.55, 2, law)
jittervan.mse_curve(0.55, [1, 2], [0.0, 10.0], law, size_budget=49, trials=2)
print(json.dumps(sorted(set(sys.modules) - before)))
"""
    )
    assert added == []
