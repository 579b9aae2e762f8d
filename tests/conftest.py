"""Suite-wide guard: a test that runs past TIME_LIMIT_S ends the run.

A max-flow loop that stops making progress never returns, so without this
guard a broken solver would hold the run until an outer job timeout. The
slowest test takes a few seconds.
"""

import signal

import pytest

TIME_LIMIT_S = 300


@pytest.fixture(autouse=True)
def _time_limit(request):
    def expire(signum, frame):
        pytest.exit(f"{request.node.nodeid} ran past {TIME_LIMIT_S} s", returncode=1)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
