"""Backend-suite fixtures: a per-test autotuner."""

from __future__ import annotations

import pytest

from repro.backend.autotune import reset_autotuner


@pytest.fixture(autouse=True)
def fresh_autotuner(tmp_path):
    """A private, empty autotune store for every backend test."""
    tuner = reset_autotuner(path=tmp_path / "autotune.json")
    yield tuner
    reset_autotuner()
