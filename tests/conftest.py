"""Every test leaves the tensor core as it found it: no block open, so no
tape open and every op checked."""

import pytest

from slotforge import tensor as T


@pytest.fixture(autouse=True)
def core_mode_is_restored():
    yield
    assert not T.grad_enabled(), "a tape is still open after the test"
    assert T._OP_CHECKS, "op checks are still off after the test"
