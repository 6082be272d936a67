"""Suite-wide guards.

- Fingerprint check mode: every memoized SDFG fingerprint hit is
  recomputed and compared (``REPRO_CHECK_FINGERPRINTS=1``), so every
  stale-analysis and incremental == cold test also proves
  memoized == recomputed.  Set before any test module imports the
  library; subprocesses the tests start inherit it.
- Thread leaks: a test that leaves a thread it started alive fails.  The
  one deliberate exemption names its thread in a ``leaks_thread`` marker,
  with the reason.
"""

import os
import threading
import time

import pytest

os.environ.setdefault("REPRO_CHECK_FINGERPRINTS", "1")

#: How long a thread a test started may take to finish after the test.
_THREAD_GRACE_SECONDS = 5.0


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "leaks_thread(name, reason): the test leaves the thread *name* "
        "alive on purpose",
    )


@pytest.fixture(autouse=True)
def _no_leaked_threads(request):
    before = set(threading.enumerate())
    yield
    marker = request.node.get_closest_marker("leaks_thread")
    exempt = set(marker.args) if marker is not None else set()
    deadline = time.monotonic() + _THREAD_GRACE_SECONDS
    leaked = []
    for thread in threading.enumerate():
        if thread in before or thread.name in exempt:
            continue
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
        if thread.is_alive():
            leaked.append(thread.name)
    if leaked:
        pytest.fail(f"test left threads running: {sorted(leaked)}")
