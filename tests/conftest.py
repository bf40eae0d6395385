import numpy as np
import pytest

from multiseq import GSDesignSpec, OutcomeModel, SimConfig
from multiseq.simulate import null_blocks


@pytest.fixture
def two_outcome_model():
    return OutcomeModel.equicorrelated(2, 0.3)


@pytest.fixture
def two_outcome_spec():
    return GSDesignSpec(n_outcomes=2, n_promising=1, n_stages=3, alpha=0.025,
                        beta=0.2, delta0=0.2, delta1=0.4)


@pytest.fixture
def searchsorted_keys(monkeypatch):
    """The key count of each ``np.searchsorted`` call the test makes."""
    keys = []
    searchsorted = np.searchsorted

    def counted(a, v, *args, **kwargs):
        keys.append(np.size(v))
        return searchsorted(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counted)
    return keys


def quick_cfg(seed=1, nsims=20_000):
    return SimConfig(seed=seed, nsims=nsims)


def null_block(n_stages, model, cfg, threads=1):
    """The model's null block with ``n_stages`` stages, drawn as a command draws it."""
    return null_blocks([n_stages], model, cfg, threads=threads)[n_stages]


def at_effects(real, block, model, mu):
    """Operating characteristics of a realisation at one effect vector: its
    grid of one point."""
    return real.evaluate_grid(block, model, [(mu_k,) for mu_k in mu])[0]


def random_correlation(rng, k):
    """Random positive-definite correlation matrix."""
    a = rng.normal(size=(k, k + 2))
    cov = a @ a.T + 0.5 * np.eye(k)
    d = np.sqrt(np.diag(cov))
    return cov / np.outer(d, d)
