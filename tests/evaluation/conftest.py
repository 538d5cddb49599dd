"""Fixtures shared by the engine test modules."""

from __future__ import annotations

import os

import pytest

import repro.evaluation.engine as engine_mod


@pytest.fixture
def crash_first_attempt(tmp_path, monkeypatch):
    """Call to make the first forked attempt of any task die via ``os._exit``.

    The winner is whichever child creates the marker file first, so
    exactly one attempt crashes; later attempts run the real task. The
    call returns the marker path. Once armed, run nothing in process:
    the crash would take the test process down with it.
    """
    marker = tmp_path / "crashed-attempt"
    real_run_task = engine_mod.run_task

    def flaky(task):
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return real_run_task(task)
        os._exit(13)

    def arm():
        monkeypatch.setattr(engine_mod, "run_task", flaky)
        return marker

    return arm
