"""The library and its CLI start on numpy alone and without the references
of ``verify``, and a cold analytic pass imports nothing more.
``numpy.random`` loads with the first draw, the thread pool only above one
worker and ``csv`` only to write a table, so a Monte-Carlo curve adds only
``numpy.random`` and ``mmap``, whose anonymous mappings hold the trials'
Gram matrices.

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


#: Reference names that no engine module holds: the complex reference path, its
#: input check, the estimator demo, the partition counts and the label vectors.
REFERENCE_NAMES = (
    "sampling_matrix", "gram_matrix", "lmmse_demo", "LmmseResult", "_check_build",
    "bell", "stirling2", "label_vector_count", "label_vectors",
)


@pytest.mark.parametrize("module", ["jittervan", "jittervan.cli"])
def test_import_loads_no_scipy_and_no_masked_arrays(module):
    loaded, exported, engine = fresh_python(
        f"""
import json, sys
import {module}
loaded = sorted(sys.modules)
import jittervan
names = {REFERENCE_NAMES!r}
exported = [name for name in names if name in jittervan.__all__]
engine = [
    f"{{part}}.{{name}}"
    for part in ("ensemble", "mse", "partitions")
    for name in names
    if hasattr(getattr(jittervan, part), name)
]
print(json.dumps([loaded, exported, engine]))
"""
    )
    assert [name for name in loaded if name.startswith("scipy")] == []
    assert [name for name in loaded if name.split(".")[:2] == ["numpy", "ma"]] == []
    # no engine module imports the references, nor does the CLI until verify runs
    assert "jittervan.verify" not in loaded
    assert engine == []
    if module == "jittervan":
        assert "jittervan.cli" not in loaded
        assert exported == []


def test_cold_pass_adds_no_module():
    analytic, monte_carlo = fresh_python(
        """
import json, sys
import jittervan
before = set(sys.modules)
law = jittervan.uniform01()
for p in range(1, 6):
    jittervan.moment(p, 0.55, 2, law)
analytic = sorted(set(sys.modules) - before)
import numpy.random
before = set(sys.modules)
jittervan.mse_curve(0.55, [1, 2], [0.0, 10.0], law, size_budget=49, trials=2)
print(json.dumps([analytic, sorted(set(sys.modules) - before)]))
"""
    )
    assert analytic == []
    assert monte_carlo == ["mmap"]


def test_analytic_runs_load_no_random_pool_or_csv():
    preloaded, loaded = fresh_python(
        """
import contextlib, io, json, sys
import numpy
preloaded = "numpy.random" in sys.modules
import jittervan
law = jittervan.uniform01()
for p in range(1, 6):
    jittervan.moment(p, 0.55, 2, law)
import jittervan.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert jittervan.cli.main(["moments", "--p-max", "5", "--beta", "0.55", "--d", "2"]) == 0
heavy = ["numpy.random", "concurrent.futures", "csv", "jittervan.verify"]
print(json.dumps([preloaded, [name for name in heavy if name in sys.modules]]))
"""
    )
    if preloaded:  # numpy 1.x loads numpy.random with numpy itself
        loaded.remove("numpy.random")
    assert loaded == []
