import os

import numpy as np
import pytest

from spde_moments import (
    AffineNoiseMap,
    NoiseModel,
    SpectralModel,
    dirichlet_laplacian,
    scaled_random_coupling,
)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process unreaped: every worker the
    package forks must have been waited for when its call returns."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("a child process was left " + ("running" if pid == 0 else "unreaped"))


@pytest.fixture
def scalar_model():
    return SpectralModel(eigenvalues=[1.0], horizon=1.0)


@pytest.fixture
def unit_noise():
    return NoiseModel(q_eigenvalues=[1.0])


@pytest.fixture
def additive_map():
    # g1 = 0, g2 = 1: purely additive scalar noise
    return AffineNoiseMap(g1=np.zeros((1, 1, 1)), g2=np.ones((1, 1)))


@pytest.fixture
def multiplicative_map():
    # G(x) w = (0.5 x + 0.5) w
    return AffineNoiseMap(g1=np.full((1, 1, 1), 0.5), g2=np.full((1, 1), 0.5))


def multimode_setup(n=4, length=np.pi):
    """Shared configuration with non-diagonal coupling: four modes by
    default, as in configs/multimode.json."""
    model = dirichlet_laplacian(n, length, horizon=1.0)
    noise = NoiseModel(
        q_eigenvalues=2.0 ** -np.arange(1, n + 1), wiener_fraction=0.5, jump_rate=4.0
    )
    g1 = scaled_random_coupling(model, noise, 0.5, seed=12345)
    gmap = AffineNoiseMap(g1=g1, g2=0.5 * np.eye(n))
    x0 = 1.0 / np.arange(1, n + 1)
    return model, noise, gmap, x0
