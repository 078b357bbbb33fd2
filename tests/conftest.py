"""Shared fixtures."""

import pytest

from axsec import _kernels


@pytest.fixture
def kernel_calls(monkeypatch):
    """A list that grows by one entry per gate-kernel run, so a test can
    count how often a call simulates."""
    calls = []
    run = _kernels.eval_gates

    def counting(*args):
        calls.append(None)
        return run(*args)

    monkeypatch.setattr(_kernels, "eval_gates", counting)
    return calls
