import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def eigh_calls(monkeypatch):
    """The shape of every matrix handed to ``np.linalg.eigh`` during the
    test, in call order."""
    calls = []
    eigh = np.linalg.eigh

    def counting(m, *args, **kwargs):
        calls.append(np.shape(m))
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls
