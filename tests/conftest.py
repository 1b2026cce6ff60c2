import threading

import pytest


@pytest.fixture
def within():
    """``within(seconds, func, *args)`` calls func in a daemon thread and
    returns its result or re-raises its exception; a call still running
    after ``seconds`` fails the test instead of stalling the suite."""
    def run(seconds, func, *args, **kwargs):
        box = {}

        def target():
            try:
                box["result"] = func(*args, **kwargs)
            except BaseException as exc:  # re-raised in the test's thread
                box["error"] = exc

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        thread.join(seconds)
        if thread.is_alive():
            name = getattr(func, "__name__", repr(func))  # a partial has none
            pytest.fail(f"{name} still running after {seconds} s")
        if "error" in box:
            raise box["error"]
        return box["result"]
    return run
