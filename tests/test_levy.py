import numpy as np
import pytest

from spde_moments import NoiseModel, sample_increments

from dense_reference import choice_sample_increments


class TestNoiseModelInvariants:
    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            NoiseModel(q_eigenvalues=[-0.1])

    def test_rejects_bad_wiener_fraction(self):
        with pytest.raises(ValueError):
            NoiseModel(q_eigenvalues=[1.0], wiener_fraction=1.5)

    def test_jump_part_requires_positive_rate(self):
        with pytest.raises(ValueError):
            NoiseModel(q_eigenvalues=[1.0], wiener_fraction=0.5, jump_rate=0.0)

    def test_zero_eigenvalue_allowed(self):
        model = NoiseModel(q_eigenvalues=[0.0, 1.0])
        assert model.trace == pytest.approx(1.0)


class TestSampling:
    def test_rejects_nonpositive_dt(self):
        noise = NoiseModel(q_eigenvalues=[1.0])
        with pytest.raises(ValueError):
            sample_increments(noise, 0.0, 1, np.random.default_rng(0))

    @pytest.mark.parametrize("rho, rate", [(1.0, 0.0), (0.5, 4.0)])
    @pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_dt(self, dt, rho, rate):
        # Wiener-only noise would return NaN or infinite increments,
        # and noise with jumps would fail inside the Poisson draw
        noise = NoiseModel(q_eigenvalues=[1.0, 0.5], wiener_fraction=rho, jump_rate=rate)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            sample_increments(noise, dt, 3, np.random.default_rng(0))

    def test_deterministic_under_fixed_seed(self):
        noise = NoiseModel(q_eigenvalues=[0.5, 0.25], wiener_fraction=0.5, jump_rate=4.0)
        a = sample_increments(noise, 0.1, 64, np.random.default_rng(42))
        b = sample_increments(noise, 0.1, 64, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_pure_wiener_no_jumps(self):
        # wiener_fraction 1 must never touch the jump machinery
        noise = NoiseModel(q_eigenvalues=[1.0], wiener_fraction=1.0, jump_rate=0.0)
        rng = np.random.default_rng(0)
        draws = sample_increments(noise, 1.0, 100_000, rng)
        var = draws.var(ddof=1)
        se = var * np.sqrt(2.0 / (draws.shape[0] - 1))  # SE of a normal variance
        assert abs(var - 1.0) <= 3 * se

    def test_mixed_increment_moments(self):
        noise = NoiseModel(q_eigenvalues=[0.5, 0.25], wiener_fraction=0.5, jump_rate=4.0)
        rng = np.random.default_rng(3)
        draws = sample_increments(noise, 1.0, 100_000, rng)
        n = draws.shape[0]
        mean = draws.mean(axis=0)
        mean_se = draws.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(mean) <= 3 * mean_se)
        cov = np.cov(draws.T)
        # standard error of each covariance entry from the sample fourth moments
        for i in range(2):
            for j in range(2):
                prod = draws[:, i] * draws[:, j]
                se = prod.std(ddof=1) / np.sqrt(n)
                target = noise.q_eigenvalues[i] if i == j else 0.0
                assert abs(cov[i, j] - target) <= 3 * se

    def test_covariance_identity_across_times(self):
        # E[<L(s), x><L(t), y>] = min(s, t) <Q x, y> for s < t,
        # probed at a randomly drawn pair of unit directions
        noise = NoiseModel(q_eigenvalues=[0.7, 0.2], wiener_fraction=0.6, jump_rate=5.0)
        rng = np.random.default_rng(8)
        x = rng.standard_normal(2)
        x /= np.linalg.norm(x)
        y = rng.standard_normal(2)
        y /= np.linalg.norm(y)
        paths, dt = 100_000, 0.25
        l_s = np.zeros((paths, 2))
        for _ in range(2):  # s = 0.5
            l_s += sample_increments(noise, dt, paths, rng)
        l_t = l_s.copy()
        for _ in range(2):  # t = 1.0
            l_t += sample_increments(noise, dt, paths, rng)
        prod = (l_s @ x) * (l_t @ y)
        target = 0.5 * float(np.sum(noise.q_eigenvalues * x * y))
        se = prod.std(ddof=1) / np.sqrt(paths)
        assert abs(prod.mean() - target) <= 3 * se

    def test_disjoint_increments_uncorrelated(self):
        noise = NoiseModel(q_eigenvalues=[1.0], wiener_fraction=0.5, jump_rate=3.0)
        rng = np.random.default_rng(9)
        a = sample_increments(noise, 0.5, 100_000, rng)[:, 0]
        b = sample_increments(noise, 0.5, 100_000, rng)[:, 0]
        prod = a * b
        se = prod.std(ddof=1) / np.sqrt(prod.size)
        assert abs(prod.mean()) <= 3 * se


    def test_scale_follows_the_step_length(self):
        # every dt has its own Wiener scale, whatever dt came before
        noise = NoiseModel(q_eigenvalues=[0.5, 0.25], wiener_fraction=0.5, jump_rate=4.0)
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        for dt in (0.1, 0.05, 0.05, 0.1, 0.025):
            np.testing.assert_array_equal(
                sample_increments(noise, dt, 50, rng),
                choice_sample_increments(noise, dt, 50, ref_rng),
            )


class TestStreamPin:
    """The cached jump law draws the stream Generator.choice drew: the same
    increments and the same generator state afterwards, seed for seed."""

    @pytest.mark.parametrize("gamma, rho, rate", [
        ([0.5, 0.25, 0.125], 1.0, 0.0),               # pure Wiener
        ([0.5, 0.25, 0.125], 0.0, 40.0),              # pure jump
        ([0.5, 0.0, 0.25, 0.125], 0.5, 40.0),         # an inactive mode in the middle
        ([0.5, 0.25, 0.125, 0.0], 0.3, 40.0),         # an inactive mode at the end
    ])
    @pytest.mark.parametrize("count", [1, 313])
    def test_matches_choice_sampler(self, gamma, rho, rate, count):
        noise = NoiseModel(q_eigenvalues=gamma, wiener_fraction=rho, jump_rate=rate)
        for seed in range(60):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                np.testing.assert_array_equal(
                    sample_increments(noise, 0.05, count, rng),
                    choice_sample_increments(noise, 0.05, count, ref_rng),
                )
            assert rng.random() == ref_rng.random()

    def test_repeated_jumps_on_one_entry_add_in_sequence(self):
        # at rate 4000 over dt 0.01 a path takes about 40 jumps per step,
        # so many (row, mode) pairs are hit more than once
        noise = NoiseModel(q_eigenvalues=[0.7, 0.3], wiener_fraction=0.2, jump_rate=4000.0)
        for seed in range(50):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            np.testing.assert_array_equal(
                sample_increments(noise, 0.01, 5, rng),
                choice_sample_increments(noise, 0.01, 5, ref_rng),
            )
            assert rng.random() == ref_rng.random()


class TestRunSampling:
    """A run of steps drawn by one call is the one-step calls made in the
    same order: the same increments, step by step, bit for bit, and the
    generator left in the same state."""

    RUNS = (1, 2, 5)

    @staticmethod
    def assert_run_is_steps(noise, dt, counts, seed, calls=3, runs=RUNS):
        # each count is a batch of paths on its own stream [seed, b]
        for b, count in enumerate(counts):
            for steps in runs:
                out = np.full((steps, count, noise.dim), np.nan)
                rng, ref = np.random.default_rng([seed, b]), np.random.default_rng([seed, b])
                for _ in range(calls):
                    run = sample_increments(noise, dt, count, rng, out=out)
                    assert run is out
                    separate = [sample_increments(noise, dt, count, ref) for _ in range(steps)]
                    np.testing.assert_array_equal(run, np.stack(separate))
                assert rng.bit_generator.state == ref.bit_generator.state

    @staticmethod
    def step_jumps(noise, dt, count, seed, steps):
        """Jumps the generator [seed, 0] draws on each of `steps` steps of
        one call a step."""
        rng, jumps = np.random.default_rng([seed, 0]), []
        for _ in range(steps):
            rng.standard_normal((count, noise.dim))
            jumps.append(int(rng.poisson(noise.jump_rate * dt, size=count).sum()))
            if jumps[-1]:
                rng.random(jumps[-1])
                rng.integers(0, 2, size=jumps[-1])
        return jumps

    @pytest.mark.parametrize("gamma, rho, rate, dt, counts", [
        ([0.5, 0.25], 1.0, 0.0, 0.1, [2, 3]),                 # Wiener only: no jump law read
        ([0.5, 0.25, 0.125], 0.0, 40.0, 0.05, [3, 2, 4]),     # jumps only
        ([0.5, 0.25, 0.125, 0.0625], 0.5, 4.0, 0.05, [1, 1, 1, 1]),  # one-path batches
        ([0.5, 0.25, 0.125, 0.0625], 0.5, 4.0, 0.0625, [313, 313, 312]),
        ([0.5, 0.25, 0.125, 0.0625], 0.5, 4.0, 0.0625, [313]),     # one batch
        ([1.0], 0.5, 40.0, 0.05, [3, 2]),     # one mode
        ([1.0], 0.5, 40.0, 0.05, [1]),        # one mode, one path
        ([0.5, 0.25, 0.125], 0.5, 40.0, 0.05, [1]),  # one path
    ], ids=["wiener", "pure-jump", "one-path-batches", "multimode", "one-generator", "one-mode",
            "one-mode-one-path", "one-path-group"])
    def test_matches_one_call_a_step(self, gamma, rho, rate, dt, counts):
        noise = NoiseModel(q_eigenvalues=gamma, wiener_fraction=rho, jump_rate=rate)
        for seed in range(40):
            self.assert_run_is_steps(noise, dt, counts, seed)

    def test_wiener_only_never_reads_the_jump_law(self):
        # rho = 1 with nu = 0: the jump size would divide by nu = 0
        noise = NoiseModel(q_eigenvalues=[0.5, 0.25], wiener_fraction=1.0, jump_rate=0.0)
        with pytest.raises(ZeroDivisionError):
            noise.jump_size
        self.assert_run_is_steps(noise, 0.1, [2, 1], seed=0)

    def test_a_step_without_jumps_beside_one_that_jumps(self):
        noise = NoiseModel(q_eigenvalues=[0.5, 0.25], wiener_fraction=0.5, jump_rate=4.0)
        dt, count = 0.05, 2
        seen = set()
        for seed in range(200):
            jumps = self.step_jumps(noise, dt, count, seed, steps=2)
            if (jumps[0] == 0) != (jumps[1] == 0):
                seen.add(jumps[0] == 0)
                self.assert_run_is_steps(noise, dt, [count], seed, calls=1, runs=(2,))
        assert seen == {True, False}  # either step without jumps

    def test_a_path_that_jumps_twice_in_one_step(self):
        # about 40 jumps a path per step, so rows repeat and (row, mode)
        # pairs are hit more than once
        noise = NoiseModel(q_eigenvalues=[0.7, 0.3], wiener_fraction=0.2, jump_rate=4000.0)
        for count in (2, 1, 3):
            for seed in range(20):
                assert min(self.step_jumps(noise, 0.01, count, seed, steps=3)) > count
                self.assert_run_is_steps(noise, 0.01, [count], seed, calls=1, runs=(3,))

    def test_rejects_a_misshaped_or_strided_buffer(self):
        noise = NoiseModel(q_eigenvalues=[1.0, 0.5])
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="count must be positive"):
            sample_increments(noise, 0.1, 0, rng)
        for out in (np.empty((3, 2)), np.empty((3, 2, 2)), np.empty((1, 2, 3, 2)),
                    np.empty((1, 2, 3)).transpose(0, 2, 1), np.empty((2, 6, 2))[:, ::2],
                    np.empty((2, 3, 2), dtype=np.float32)):
            with pytest.raises(ValueError, match=r"out must be a C-ordered float64 array of "
                                                 r"shape \(steps, 3, 2\)"):
                sample_increments(noise, 0.1, 3, rng, out=out)
