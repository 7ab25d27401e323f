import numpy as np
import pytest

from megstat import birthdeath


@pytest.fixture
def no_lattice(monkeypatch):
    """birthdeath's rate functions, failing on an array of states: no lattice may be built."""
    def one_state(rate):
        def patched(n, kp):
            assert not isinstance(n, np.ndarray), "the lattice was built"
            return rate(n, kp)
        return patched

    monkeypatch.setattr(birthdeath, "birth_rate", one_state(birthdeath.birth_rate))
    monkeypatch.setattr(birthdeath, "death_rate", one_state(birthdeath.death_rate))
