"""Shared pytest wiring for the suite."""

import contextlib
import multiprocessing
import os
import warnings

import pytest

# hypothesis imports this module when a @given test fails, and its libcst
# import emits a DeprecationWarning (from mypy_extensions) that the suite's
# error::DeprecationWarning filter would turn into an INTERNALERROR ending
# the session. Importing it once here, with that warning ignored, lets such
# a test fail alone.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture
def emit_verdict(request):
    """Print one PASS/FAIL verdict line on the live output stream.

    Capture is suspended while the line is written so the verdict appears
    in piped or teed pytest output even for passing tests; the same line
    doubles as the assertion message.
    """
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def emit(num: int, ok: bool, detail: str) -> None:
        line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)
        else:
            print(line, flush=True)
        assert ok, line

    return emit


@pytest.fixture(autouse=True)
def no_stray_processes():
    """Fail a test that leaves a child process running or unreaped.

    The zombie check runs first: ``active_children`` reaps the finished
    children that multiprocessing started, which would hide one that was
    never joined.
    """
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        pid = None
    alive = multiprocessing.active_children()
    assert pid is None and not alive, (
        f"child processes left behind: {'unreaped' if pid else 'running'}, {alive}")
