"""Tests for the typed exception hierarchy."""

import pytest

from repro.utils.errors import (
    CheckpointError,
    EngineError,
    FaultInjectionError,
    FuzzError,
    PredictionError,
    ProfileError,
    QuarantinedTaskError,
    SelectionError,
    SieveError,
    TaskCrashError,
    TaskTimeoutError,
)
from repro.utils.validation import require


@pytest.mark.parametrize(
    "exc_type",
    [
        SieveError,
        ProfileError,
        SelectionError,
        PredictionError,
        FaultInjectionError,
        EngineError,
        TaskTimeoutError,
        TaskCrashError,
        QuarantinedTaskError,
        FuzzError,
        CheckpointError,
    ],
)
def test_hierarchy_is_catchable_as_value_error(exc_type):
    # Backwards compatibility: all repro errors remain ValueErrors so
    # pre-existing callers that catch ValueError keep working.
    assert issubclass(exc_type, SieveError)
    assert issubclass(exc_type, ValueError)


def test_engine_subtypes_catchable_as_engine_error():
    for exc_type in (TaskTimeoutError, TaskCrashError, QuarantinedTaskError):
        assert issubclass(exc_type, EngineError)
    assert issubclass(CheckpointError, FuzzError)


def test_context_renders_as_sorted_suffix():
    exc = SieveError("task failed", workload="fuzz/s-0001", attempt=2)
    assert exc.message == "task failed"
    assert exc.context == {"workload": "fuzz/s-0001", "attempt": 2}
    assert str(exc) == "task failed [attempt=2, workload='fuzz/s-0001']"


def test_context_drops_none_fields():
    exc = EngineError("timed out", deadline_s=30.0, error=None)
    assert exc.context == {"deadline_s": 30.0}
    assert str(exc) == "timed out [deadline_s=30.0]"


def test_no_context_renders_plain_message():
    exc = SieveError("plain")
    assert exc.context == {}
    assert str(exc) == "plain"


def test_profile_error_carries_location():
    exc = ProfileError("bad field", path="/tmp/p.csv", row=17)
    assert exc.path == "/tmp/p.csv"
    assert exc.row == 17
    assert str(exc) == "/tmp/p.csv:row 17: bad field"


def test_profile_error_without_location():
    exc = ProfileError("just a message")
    assert exc.path is None and exc.row is None
    assert str(exc) == "just a message"


def test_profile_error_path_only():
    exc = ProfileError("oops", path="p.csv")
    assert str(exc) == "p.csv: oops"


def test_require_default_raises_value_error():
    require(True, "fine")
    with pytest.raises(ValueError, match="boom"):
        require(False, "boom")


def test_require_custom_error_class():
    with pytest.raises(SelectionError, match="no strata"):
        require(False, "no strata", SelectionError)


def test_require_error_factory():
    with pytest.raises(ProfileError) as excinfo:
        require(
            False,
            "corrupt",
            lambda m: ProfileError(m, path="x.csv", row=3),
        )
    assert excinfo.value.row == 3
