import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture(autouse=True)
def no_biflow_thread_left():
    """Fail any test that leaves a thread biflow names running: a dispatcher
    lane (``biflow-lane-*``) or a transport thread (``transport-*``)."""
    yield
    left = [t.name for t in threading.enumerate()
            if t.name.startswith(("biflow-", "transport-"))]
    assert not left, f"biflow threads still running: {left}"
