"""Shared fixture for gateway-level tests: a small deterministic deployment.

Zero-jitter 1 ms links, constant 10 ms service times by default, no
fault injection, and direct access to every layer.
"""

import pytest

from repro.deployment import Deployment


@pytest.fixture
def stack() -> Deployment:
    return Deployment()
