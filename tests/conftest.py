"""Shared fixtures."""

import sys

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(f) rebinds f, under every name a matseq module holds it,
    to a wrapper that counts its calls; returns the list the wrapper appends
    to (its length is the count).  Undone when the test ends."""

    def install(func):
        calls = []

        def counted(*args):
            calls.append(None)
            return func(*args)

        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "matseq" or name.startswith("matseq.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is func:
                    monkeypatch.setattr(mod, attr, counted)
        return calls

    return install
