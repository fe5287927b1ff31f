import concurrent.futures
from concurrent.futures import Future

import pytest


@pytest.fixture
def inline_pools(monkeypatch) -> list:
    """Replace the process pool the harness imports by one that records its
    arguments, starts no process and runs each task inline, without the
    initializer.  The fixture's value lists the keyword arguments of each
    pool made, in order."""
    made = []

    class InlinePool:
        def __init__(self, **kwargs):
            made.append(kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return made
