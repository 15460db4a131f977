# keeps the tests directory importable for shared helpers
import signal

import pytest


@pytest.fixture
def within_2s():
    """Fail the test if it runs for more than 2 s, where it would otherwise
    hang: the alarm's handler raises in the test's thread."""
    def expire(signum, frame):
        raise TimeoutError("still running after 2 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(2)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
