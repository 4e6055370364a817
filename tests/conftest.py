import numpy as np
import pytest

from mbrl.data import SimConfig, simulate_at_kl


def pinned_kl_draw(seed, n_treated, n_control, kl=0.5, dim=10):
    """Simulator draw whose selection-bias KL is pinned exactly.

    Keeps the true propensity inside the overlap region so Monte Carlo
    checks of the orthogonality machinery stay informative.
    """
    # off-origin base mean keeps tanh-based probe directions well away from
    # their symmetry point
    mu0 = np.ones(dim)
    cfg = SimConfig(n_treated=n_treated, n_control=n_control, dim=dim,
                    mu1=mu0 + np.ones(dim), mu0=mu0, seed=seed)
    data, truth, _ = simulate_at_kl(cfg, kl, seed)
    return data, truth


@pytest.fixture
def kl_draw():
    return pinned_kl_draw
