import os
from pathlib import Path

import pytest

# rydsim sets OMP_NUM_THREADS=1 unless it is set, which only takes effect
# before numpy loads; the test modules import numpy first, so import
# rydsim here, before any of them.
import rydsim


@pytest.fixture
def child_env() -> dict:
    """Environment of a child interpreter that imports this rydsim and
    nothing from the caller's environment, except that a caller that asked
    for no bytecode gets none written into src/."""
    env = {"PYTHONPATH": str(Path(rydsim.__file__).parents[1])}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env
