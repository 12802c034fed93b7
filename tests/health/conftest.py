"""Shared fixture for the health-subsystem tests.

The adaptive-timeout tests drive a real handler on the same small
deterministic deployment the gateway tests use.
"""

import pytest

from repro.deployment import Deployment


@pytest.fixture
def stack() -> Deployment:
    return Deployment()
