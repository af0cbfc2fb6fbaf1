"""Unit tests for the backend dispatch rule (:mod:`repro.dispatch`)."""

from __future__ import annotations

import pytest

from repro.dispatch import BACKEND_ENV_VAR, BACKENDS, BackendError, resolve_backend


class TestResolveBackend:
    def test_explicit_backend_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "dict")
        assert resolve_backend("compact") == "compact"

    def test_env_var_applies_without_explicit_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "dict")
        assert resolve_backend(None) == "dict"

    def test_auto_resolves_to_entry_point_preference(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend(None) == "compact"
        assert resolve_backend(None, auto="dict") == "dict"
        assert resolve_backend("auto", auto="dict") == "dict"

    def test_names_are_normalized(self):
        assert resolve_backend(" Compact ") == "compact"

    @pytest.mark.parametrize("name", BACKENDS)
    def test_every_documented_name_is_accepted(self, name):
        assert resolve_backend(name) in ("compact", "dict")

    def test_retired_parallel_backend_is_rejected(self, monkeypatch):
        # A retired backend name is just another unknown name, whether
        # it comes from the argument or the environment.
        retired = "compact-parallel"
        with pytest.raises(BackendError):
            resolve_backend(retired)
        monkeypatch.setenv(BACKEND_ENV_VAR, retired)
        with pytest.raises(BackendError):
            resolve_backend(None)


class TestBackendErrorDiagnostics:
    """A stale env var and a bad argument must be distinguishable."""

    def test_bad_argument_names_the_call_site(self, monkeypatch):
        # Even with a *valid* env var, a bad argument is the culprit.
        monkeypatch.setenv(BACKEND_ENV_VAR, "dict")
        with pytest.raises(BackendError) as excinfo:
            resolve_backend("numpy")
        message = str(excinfo.value)
        assert "backend= argument" in message
        assert BACKEND_ENV_VAR not in message
        assert "'numpy'" in message

    def test_bad_env_var_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "gpu")
        with pytest.raises(BackendError) as excinfo:
            resolve_backend(None)
        message = str(excinfo.value)
        assert BACKEND_ENV_VAR in message
        assert "backend= argument" not in message
        assert "'gpu'" in message

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
