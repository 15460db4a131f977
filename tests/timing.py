"""The clock of the tests that compare the cost of a small and a large input."""

import gc
import time


def best_thread_s(prepare) -> float:
    """Best of three: CPU seconds of this thread to call what `prepare()`
    returns, `prepare` itself untimed.  This thread's CPU time, so that
    neither other processes nor transport loops that earlier tests left
    running move the ratio, and with the cyclic GC off, whose passes cost in
    proportion to all the objects the test run holds, not to the input."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(3):
            run = prepare()
            t0 = time.thread_time()
            run()
            best = min(best, time.thread_time() - t0)
    finally:
        gc.enable()
    return best
