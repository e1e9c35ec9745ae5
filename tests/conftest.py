import os
import sys
import threading
from pathlib import Path

import pytest

# One BLAS thread unless the caller chose otherwise: OpenBLAS reads this when
# numpy is first imported, which no test module has done yet, and it is the
# setting the acceptance criteria's training recipes are measured under.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Make the oracle helpers importable regardless of invocation directory.
sys.path.insert(0, str(Path(__file__).resolve().parent))

# pyproject.toml's pythonpath puts src on this process's import path only;
# tests that start ``python -m plmetric`` need it in the environment too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(autouse=True)
def _no_thread_left_running():
    # Threaded routes (manifold._run_blocks) must join every helper before
    # they return, on success and on error alike.
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"test left threads running: {left}"
