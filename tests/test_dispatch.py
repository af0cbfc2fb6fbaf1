"""Unit tests for the backend dispatch rule (:mod:`repro.dispatch`)."""

from __future__ import annotations

import pytest

from repro.dispatch import BACKENDS, BackendError, resolve_backend


class TestResolveBackend:
    def test_auto_resolves_to_entry_point_preference(self):
        assert resolve_backend(None) == "compact"
        assert resolve_backend(None, auto="dict") == "dict"
        assert resolve_backend("auto", auto="dict") == "dict"

    def test_names_are_normalized(self):
        assert resolve_backend(" Compact ") == "compact"

    @pytest.mark.parametrize("name", BACKENDS)
    def test_every_documented_name_is_accepted(self, name):
        assert resolve_backend(name) in ("compact", "dict")

    def test_retired_parallel_backend_is_rejected(self):
        # A retired backend name is just another unknown name.
        with pytest.raises(BackendError):
            resolve_backend("compact-parallel")


class TestBackendErrorDiagnostics:
    def test_bad_argument_names_the_call_site(self):
        with pytest.raises(BackendError) as excinfo:
            resolve_backend("numpy")
        message = str(excinfo.value)
        assert "backend= argument" in message
        assert "'numpy'" in message

    @pytest.mark.parametrize("bad", [1, 0, b"compact", ["compact"], object()])
    def test_non_string_backend_raises_backend_error(self, bad):
        # backend=1 used to crash with AttributeError on .lower().
        with pytest.raises(BackendError) as excinfo:
            resolve_backend(bad)
        message = str(excinfo.value)
        assert "must be a string" in message
        assert type(bad).__name__ in message

    def test_backend_error_is_a_value_error(self):
        # Callers catching the documented ValueError keep working.
        with pytest.raises(ValueError):
            resolve_backend("numpy")
