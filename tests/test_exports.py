"""Every exported name resolves, so a removed name cannot linger in ``__all__``."""

import pytest

import loraguard
import loraguard.scenario


@pytest.mark.parametrize("module", [loraguard, loraguard.scenario], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
