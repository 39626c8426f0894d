import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from criteria_helpers import (
    Tensor2,
    dual_pair,
    hilbert_norm,
    injective_norm,
    projective_norm,
)


def rank_one(u, v):
    return Tensor2(np.outer(u, v))


class TestNormExamples:
    def test_projective_rank_one_is_product_of_norms(self):
        x = rank_one([2.0, 0.0], [0.0, 3.0, 0.0])
        assert projective_norm(x) == pytest.approx(6.0)

    def test_projective_identity(self):
        assert projective_norm(Tensor2(np.eye(2))) == pytest.approx(2.0)

    def test_projective_diagonal_is_trace(self):
        gammas = np.array([0.5, 0.25, 0.125])
        assert projective_norm(Tensor2(np.diag(gammas))) == pytest.approx(0.875, abs=1e-12)

    def test_injective_rank_one(self):
        x = rank_one([2.0, 0.0], [0.0, 3.0])
        assert injective_norm(x) == pytest.approx(6.0)

    def test_injective_identity(self):
        assert injective_norm(Tensor2(np.eye(2))) == pytest.approx(1.0)

    def test_injective_diagonal(self):
        assert injective_norm(Tensor2(np.diag([3.0, 1.0]))) == pytest.approx(3.0)

    def test_hilbert_identity(self):
        assert hilbert_norm(Tensor2(np.eye(2))) == pytest.approx(np.sqrt(2.0))

    def test_hilbert_diagonal(self):
        assert hilbert_norm(Tensor2(np.diag([3.0, 4.0]))) == pytest.approx(5.0)

    def test_hilbert_rank_one(self):
        u, v = np.array([1.0, 2.0]), np.array([2.0, 1.0, 2.0])
        assert hilbert_norm(rank_one(u, v)) == pytest.approx(
            np.linalg.norm(u) * np.linalg.norm(v)
        )

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Tensor2(np.array([[np.nan, 0.0]]))


class TestDualPair:
    def test_identity_pairing(self):
        assert dual_pair(Tensor2(np.eye(2)), Tensor2(np.eye(2))) == pytest.approx(2.0)

    def test_zero(self):
        x = Tensor2(np.arange(4.0).reshape(2, 2))
        assert dual_pair(x, Tensor2(np.zeros((2, 2)))) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dual_pair(Tensor2(np.eye(2)), Tensor2(np.eye(3)))

    def test_svd_witness_attains_projective_norm(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            x = rng.standard_normal((5, 4))
            x = Tensor2(x / np.linalg.norm(x))
            u, _, vt = np.linalg.svd(x.entries, full_matrices=False)
            witness = Tensor2(u @ vt)
            assert injective_norm(witness) == pytest.approx(1.0, abs=1e-12)
            assert dual_pair(x, witness) == pytest.approx(projective_norm(x), abs=1e-10)

    def test_pairing_below_projective_norm_on_unit_ball(self):
        rng = np.random.default_rng(19)
        x = Tensor2(rng.standard_normal((4, 4)))
        for _ in range(50):
            y = rng.standard_normal((4, 4))
            y = Tensor2(y / np.linalg.norm(y, 2))
            assert dual_pair(x, y) <= projective_norm(x) * (1 + 1e-10)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(1, 8),
    cols=st.integers(1, 8),
    seed=st.integers(0, 2 ** 31),
)
def test_norm_chain(rows, cols, seed):
    entries = np.random.default_rng(seed).standard_normal((rows, cols))
    scale = np.linalg.norm(entries)
    x = Tensor2(entries / scale if scale > 0 else entries)
    inj, hil, proj = injective_norm(x), hilbert_norm(x), projective_norm(x)
    assert inj <= hil + 1e-10
    assert hil <= proj + 1e-10


@settings(max_examples=100, deadline=None)
@given(
    u=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    v=st.lists(st.floats(-5, 5), min_size=4, max_size=4),
)
def test_norms_agree_on_rank_one(u, v):
    x = rank_one(u, v)
    expected = float(np.linalg.norm(u) * np.linalg.norm(v))
    assert injective_norm(x) == pytest.approx(expected, abs=1e-9)
    assert hilbert_norm(x) == pytest.approx(expected, abs=1e-9)
    assert projective_norm(x) == pytest.approx(expected, abs=1e-9)
