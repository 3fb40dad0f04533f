"""The numpy dependency gate of :mod:`repro.compat`."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

import repro.compat as compat
from repro.errors import DependencyError, ReproError


class TestNumpyGate:
    """The fail-fast dependency gate of :mod:`repro.compat`."""

    def test_version_tuple_parsing(self):
        assert compat._version_tuple("1.21.3") == (1, 21)
        assert compat._version_tuple("2.4.6rc1") == (2, 4)
        assert compat._version_tuple("weird") == ()

    def test_require_numpy_returns_module(self):
        assert compat.require_numpy() is np

    def test_below_floor_raises_dependency_error(self):
        with mock.patch.object(np, "__version__", "1.20.0"):
            with pytest.raises(DependencyError) as excinfo:
                compat.require_numpy()
        message = str(excinfo.value)
        assert "1.21" in message and "pip install" in message

    def test_dependency_error_taxonomy(self):
        # Callers catching either the package taxonomy or the stdlib
        # ImportError family must both see the gate failure.
        assert issubclass(DependencyError, ReproError)
        assert issubclass(DependencyError, ImportError)

    def test_packaging_floor_matches_runtime_gate(self):
        # pyproject.toml's install requirement and compat.NUMPY_FLOOR
        # must state the same version, or the installer and the
        # import-time gate would disagree about what is supported.
        import pathlib
        import re

        pyproject = (pathlib.Path(__file__).resolve().parent.parent
                     / "pyproject.toml").read_text()
        match = re.search(r'"numpy>=(\d+)\.(\d+)"', pyproject)
        assert match, "no numpy floor declared in pyproject.toml"
        assert (int(match.group(1)), int(match.group(2))) \
            == compat.NUMPY_FLOOR
