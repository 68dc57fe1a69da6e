"""Marks the multi-minute tests ``slow``, so ``pytest -m "not slow"`` is a quick loop.

The marker is added here rather than in the test modules so the acceptance
module stays as written.
"""

import pytest

SLOW_CLASSES = {"TestCriterion5Convergence"}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.cls is not None and item.cls.__name__ in SLOW_CLASSES:
            item.add_marker(pytest.mark.slow)
