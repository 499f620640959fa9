"""A test that hangs fails instead: each test runs under a watchdog that
dumps every thread's traceback to stderr (shown under the suite's ``-s``)
and exits the run with status 1 after ``LIMIT_S`` seconds.  The slowest
test takes about 20 s."""

import faulthandler

import pytest

LIMIT_S = 300


@pytest.fixture(autouse=True)
def watchdog():
    faulthandler.dump_traceback_later(LIMIT_S, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()
