"""The public surface: every exported name resolves."""

from __future__ import annotations

import importlib

import pytest


@pytest.mark.parametrize("module", ["reconfnet", "reconfnet.lp"])
def test_every_exported_name_resolves(module) -> None:
    namespace = importlib.import_module(module)
    missing = [name for name in namespace.__all__ if not hasattr(namespace, name)]
    assert missing == []
    assert len(set(namespace.__all__)) == len(namespace.__all__)
