import gc
import sys
from pathlib import Path

import pytest

# make test-local helper modules (policy_fuzz, oracles) importable
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def collector_off():
    """Run the test with the cycle collector off, from a collected heap.

    What the test leaves cyclic stays in memory until the collector, back
    on, runs at teardown."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
        gc.collect()
