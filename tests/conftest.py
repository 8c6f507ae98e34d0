import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture(autouse=True)
def no_lane_thread_left():
    """Fail any test that leaves a dispatcher lane thread running."""
    yield
    left = [t.name for t in threading.enumerate() if t.name.startswith("biflow-lane-")]
    assert not left, f"lane threads still running: {left}"
