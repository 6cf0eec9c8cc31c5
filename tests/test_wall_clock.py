import signal
import time

import pytest

from conftest import TEST_WALL_SECONDS, WallClockExceeded


def test_wall_clock_limit_fails_a_stalled_test():
    remaining, interval = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining <= TEST_WALL_SECONDS and interval == 0
    signal.setitimer(signal.ITIMER_REAL, 0.05)  # the limit, brought forward
    start = time.monotonic()
    with pytest.raises(WallClockExceeded, match=f"^test ran past {TEST_WALL_SECONDS} s of wall time$"):
        time.sleep(5)
    assert time.monotonic() - start < 2
