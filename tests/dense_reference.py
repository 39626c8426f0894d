"""Dense reference forms of the structured space-time objects.

The package holds the pairing by its two diagonals, a load by its
per-interval parts and a symmetric moment field by its diagonal and
upper block diagonals.
These helpers build the dense arrays those structures stand for, by the
plain loops and quadratures the structured code replaced, so tests can
compare the two. Each needs O(K^2) or O(K^3) memory; keep K small.

The oracle solves its matrix equation exactly by one matrix exponential;
`rk4_second_moment` integrates the same equation by classical
Runge-Kutta, the stepper that exact propagator replaced.
`two_time_transpose_loop` fills the lower half of a two-time field by
the block-by-block loop that one indexed assignment replaced.

`mode_matrices` and `dense_singular_range` form each mode's dense
pairing and Grams and take the inf-sup range by a dense eigh and SVD,
O(K^3) per mode, the computation the inertia counts on the tridiagonal
pencil replaced.

`unblocked_multiplicative_form` contracts the noise map against a whole
stack of second moments by two matmuls through (..., M, N, N)
temporaries, the factored form that the package's symmetric action
replaced; it reads no pair products, so the tests that build on it do
not check the action against itself. `kronecker_matrix` is the
(N^2, N^2) matrix T of the form on flattened second moments, the pair
products P[i, a, k, b] = sum_m gamma_m g1[a, i, m] g1[b, k, m], one
(N^2, M) diag(gamma) (M, N^2) product, with their middle axes swapped;
the package no longer forms P or T, and builds its action from g1's
slices by the same products, block by block. `unit_input_generator`
builds the oracle's generator by applying the factored form to a stack
of symmetric unit matrices, N inputs at a time, the construction that
reading the columns off the action replaced. `kronecker_generator` builds the same generator by
reading its block off T, by three np.ix_ gathers;
`fresh_temporaries_expm` evaluates the oracle's scaling and squaring
with a fresh array for every term of its Pade sums. They are the forms
that the symmetric action's gathers and accumulating in place replaced,
and the package's must match them byte for byte.

`choice_sample_increments` draws Levy increments with Generator.choice
and np.add.at, the sampler whose random stream the package's cached
jump law reproduces draw for draw.

`simulate_paths` keeps every path of a Monte Carlo run, with its
increments, in one process: it fills each batch with the package's own
batch stepper and records the runs of increments it draws ahead.
`estimate_paths` reduces such paths to their moments through whole
per-batch sums of outer products (`dense_sum_batch`,
`dense_reduce`, nb D^2 float64), the form that the package's upper
triangles replaced, so for the same arguments
`estimate_paths(simulate_paths(...)[0])` is `simulate_moments(...)` bit
for bit. Both hold P (K+1) N float64; keep P K small.

`format_tables` builds the tables of `_format` from int64 digit
arithmetic on the groups 0..9999, the construction that the uint8 grid
of digit characters replaced.
"""

import numpy as np
from scipy.linalg import svdvals

import spde_moments.montecarlo as mc
from spde_moments._format import _32, _CLASSES, _E_MAX, _E_MIN, _M32, _NUM
from spde_moments.noise_map import check_compatible, mean_form
from spde_moments.oracle import _PADE13, _THETA13


def tdelta_assemble(grid):
    """Temporal weights W[k, l1, l2] = int_{I_k} hat_l1 hat_l2.

    Exact quadrature of the degree-two products. W is symmetric in the
    hat indices and sparse: on interval I_k only the hats at its two
    endpoints are nonzero, and the final interval supports one hat.
    """
    K, dt = grid.steps, grid.dt
    w = np.zeros((K, K, K))
    for i in range(K):
        w[i, i, i] = dt / 3.0
        if i + 1 <= K - 1:
            w[i, i, i + 1] = w[i, i + 1, i] = dt / 6.0
            w[i, i + 1, i + 1] = dt / 3.0
    return w


def dense_load(grid, load):
    """The dense (K, N, K, N) load a MomentLoad stands for, by exact quadrature."""
    dense = np.einsum("kab,kij->aibj", tdelta_assemble(grid), load.spatial)
    dense[0, :, 0, :] += load.initial
    return dense


def dense_pairing(system, mode=0):
    """Mode's dense K x K pairing B_n from its two diagonals."""
    K = system.grid.steps
    return np.diag(np.full(K, system.a[mode])) + np.diag(np.full(K - 1, system.c[mode]), 1)


def dense_solve(system, load):
    """Trial coefficients U of B_n^T U B_m = load for a dense (K, N, K, N)
    load, by two dense solves per mode pair: the solve the causal sweep
    replaced, which forms every block and assumes no symmetry."""
    n = system.n_modes
    pairings = [dense_pairing(system, mode) for mode in range(n)]
    field = np.empty_like(load)
    for i in range(n):
        for j in range(n):
            left = np.linalg.solve(pairings[i].T, load[:, i, :, j])
            field[:, i, :, j] = np.linalg.solve(pairings[j].T, left.T).T
    return field


def mode_matrices(system, mode):
    """Mode's dense pairing B_n, trial Gram diagonal and test Gram.

    The trial Gram in the energy norm is lambda dt on the diagonal; the
    test Gram of the hats is lambda * mass + stiffness / lambda in the
    graph norm, with the exact tridiagonal hat mass and stiffness.
    """
    K, dt, lam = system.grid.steps, system.grid.dt, system.eigenvalues[mode]
    support = np.full(K, 2.0)
    support[0] = 1.0  # intervals under each hat; the one at t_0 has only one
    off = np.full(K - 1, lam * (dt / 6.0) + (-1.0 / dt) / lam)
    test_gram = np.diag(lam * (support * dt / 3.0) + support / dt / lam)
    test_gram += np.diag(off, 1) + np.diag(off, -1)
    return dense_pairing(system, mode), np.full(K, lam * dt), test_gram


def dense_singular_range(system):
    """Smallest and largest singular value of each mode's Gram-normalized
    pairing G_Y^-1/2 B^T D^-1/2, by a dense eigh of G_Y and an SVD."""
    smallest = np.empty(system.n_modes)
    largest = np.empty(system.n_modes)
    for i in range(system.n_modes):
        pairing, trial_gram_diag, test_gram = mode_matrices(system, i)
        w, v = np.linalg.eigh(test_gram)
        assert np.all(w > 0.0), f"test Gram for mode {i} is not positive definite"
        gy_inv_half = (v / np.sqrt(w)) @ v.T
        pencil = gy_inv_half @ pairing.T @ np.diag(1.0 / np.sqrt(trial_gram_diag))
        s = svdvals(pencil)
        smallest[i] = s[-1]
        largest[i] = s[0]
    return smallest, largest


def unblocked_multiplicative_form(gmap, noise, Mmat):
    """sum_m gamma_m G1_m M G1_m^T over every leading axis of M at once,
    with temporaries of shape (..., M, N, N)."""
    n, modes = gmap.state_dim, gmap.noise_dim
    left = gmap.g1.transpose(2, 0, 1) @ Mmat[..., None, :, :]
    rows = np.swapaxes(left, -3, -2).reshape(Mmat.shape[:-2] + (n, modes * n))
    right = (gmap.g1.transpose(0, 2, 1) * noise.q_eigenvalues[:, None]).reshape(n, modes * n)
    return rows @ right.T


def unit_input_generator(model, noise, gmap):
    """Matrix A of the oracle's z' = A z, z = (M[np.triu_indices(N)], m, 1),
    column by column from the rate at unit inputs.

    Input j sets entry j of z to one and every other entry, the constant
    included, to zero; for the entry (i, k) of M that is the symmetric
    unit matrix with ones at (i, k) and (k, i). The last input is zero.
    The rate is affine, so column j of A is the rate at input j minus the
    rate at zero, and the last column is the rate at zero.
    """
    n, lam = model.dim, model.eigenvalues
    rows, cols = np.triu_indices(n)
    p = rows.size
    d = p + n + 1
    units = np.zeros((d, n, n))
    units[np.arange(p), rows, cols] = units[np.arange(p), cols, rows] = 1.0
    vecs = np.zeros((d, n))
    vecs[p:p + n] = np.eye(n)
    gen = np.zeros((d, d))
    for s in range(0, d, n):  # n inputs at a time keep the stacked noise forms small
        Ms, ms = units[s:s + n], vecs[s:s + n]
        rate = -(lam[:, None] * Ms + Ms * lam) + (unblocked_multiplicative_form(gmap, noise, Ms)
                                                   + mean_form(gmap, noise, ms))
        gen[:p, s:s + n] = rate[:, rows, cols].T
        gen[p:p + n, s:s + n] = -(ms * lam).T
    gen[:, :-1] -= gen[:, -1:]
    return gen


def kronecker_matrix(gmap, noise):
    """The (N^2, N^2) matrix T of the multiplicative form on flattened
    second moments, (sum_m gamma_m G1_m M G1_m^T).ravel() == M.ravel() @ T:
    the pair products with their middle axes swapped, copied."""
    n = gmap.state_dim
    return _pair_products(gmap, noise).transpose(0, 2, 1, 3).reshape(n * n, n * n)


def _pair_products(gmap, noise):
    """The (N, N, N, N) pair products P[i, a, k, b] = sum_m gamma_m
    g1[a, i, m] g1[b, k, m], one (N^2, M) diag(gamma) (M, N^2) product
    over the pairs (i, a) and (k, b), viewed with four axes."""
    check_compatible(gmap, noise, gmap.state_dim)
    n, modes = gmap.state_dim, gmap.noise_dim
    pairs = gmap.g1.transpose(1, 0, 2).reshape(n * n, modes)            # row (i, a): g1[a, i, :]
    return ((pairs * noise.q_eigenvalues) @ pairs.T).reshape(n, n, n, n)


def kronecker_generator(model, noise, gmap):
    """The oracle's generator A with its second-moment block read off the
    (N^2, N^2) matrix T of kronecker_matrix by np.ix_ gathers: the
    column of entry (i, k) of z is T[(i, k)] + T[(k, i)] for i < k and
    T[(i, i)] for i = k. Holds T, its unpermuted product and three p x p
    gathers at once."""
    n, lam = model.dim, model.eigenvalues
    rows, cols = np.triu_indices(n)
    p = rows.size
    gen = np.zeros((p + n + 1, p + n + 1))
    rates = mean_form(gmap, noise, np.eye(n + 1, n))[:, rows, cols]
    gen[:p, p:] = rates.T
    gen[:p, p:-1] -= rates[-1:].T
    tmat = kronecker_matrix(gmap, noise)
    upper, lower = rows * n + cols, cols * n + rows
    mirror = (rows != cols)[:, None] * tmat[np.ix_(lower, upper)]  # zero for i = k
    gen[:p, :p] = (tmat[np.ix_(upper, upper)] + mirror).T
    gen[np.diag_indices(p + n)] -= np.concatenate([lam[rows] + lam[cols], lam])
    return gen


def fresh_temporaries_expm(a):
    """Scaling and squaring with the oracle's [13/13] Pade approximant,
    every term of its sums a fresh array and the identity a full matrix."""
    norm = np.abs(a).sum(axis=0).max()
    s = int(np.ceil(np.log2(norm / _THETA13))) if norm > _THETA13 else 0
    a = a * 2.0 ** -s
    b = _PADE13
    ident = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def apply_tensor_operator(system, coeffs):
    """Forward application of the tensorized pairing to dense trial coefficients.

    Maps U to the dense load B_n^T U B_m it solves, the inverse of the
    causal sweep; used to verify that solves reproduce their loads. Along
    either time index the bidiagonal B acts as x_l -> a x_l + c x_{l-1},
    so the map is two shifted, broadcast products.
    """
    a, c = system.a, system.c
    left = a[:, None, None] * coeffs
    left[1:] += c[:, None, None] * coeffs[:-1]
    out = left * a
    out[:, :, 1:] += left[:, :, :-1] * c
    return out


def dense_coeffs(field):
    """Dense trial coefficients U[k, n, l, m] of a SpaceTimeMoment, filled
    one time offset at a time from its block diagonals, the lower ones
    the upper ones transposed."""
    K, n = field.diagonal.shape[:2]
    dense = np.zeros((K, n, K, n))
    idx = np.arange(K)
    dense[idx, :, idx, :] = field.diagonal
    for d in range(1, K):  # time offset l - k
        dense[idx[:-d], :, idx[d:], :] = field.upper[:K - d] * field.ratio ** (d - 1)
        lower = field.upper[:K - d].swapaxes(-1, -2)
        dense[idx[d:], :, idx[:-d], :] = field.ratio[:, None] ** (d - 1) * lower
    return dense


def rk4_second_moment(model, noise, gmap, m0, M0, steps, substeps):
    """Second moment M(t_k) on the uniform grid of `steps` intervals by
    classical Runge-Kutta with `substeps` stages per interval, for

        M' = -(Lam M + M Lam) + Phi(M, m),   m(t) = exp(-Lam t) m0.

    Explicit: stable only while 2 lambda_max h stays inside the Runge-Kutta
    interval, h = horizon / (steps * substeps). Returns (steps+1, N, N).
    """
    lam = model.eigenvalues
    m0 = np.asarray(m0, dtype=float)

    def rate(t, M):
        m_t = np.exp(-lam * t) * m0
        return -(lam[:, None] * M + M * lam[None, :]) + (
            unblocked_multiplicative_form(gmap, noise, M) + mean_form(gmap, noise, m_t))

    h = model.horizon / (steps * substeps)
    diag = np.empty((steps + 1,) + np.shape(M0))
    diag[0] = M = np.asarray(M0, dtype=float)
    t = 0.0
    for k in range(steps):
        for _ in range(substeps):
            k1 = rate(t, M)
            k2 = rate(t + 0.5 * h, M + 0.5 * h * k1)
            k3 = rate(t + 0.5 * h, M + 0.5 * h * k2)
            k4 = rate(t + h, M + h * k3)
            M = M + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
        diag[k + 1] = M
    return diag


def two_time_transpose_loop(two):
    """Copy of a (K+1, N, K+1, N) field whose blocks below the time
    diagonal are the transposes of the blocks above it, one at a time."""
    two = two.copy()
    for k in range(two.shape[0]):
        for l in range(k):
            two[k, :, l, :] = two[l, :, k, :].T
    return two


def choice_sample_increments(noise, dt, count, rng):
    """Levy increments drawn as the package drew them before it cached
    the jump law: the jump modes through Generator.choice, the jump rows
    by np.repeat, the jumps added by np.add.at."""
    gamma = noise.q_eigenvalues
    rho = noise.wiener_fraction
    out = rng.standard_normal((count, noise.dim)) * np.sqrt(dt * rho * gamma)
    tr = float(np.sum(gamma))
    if rho < 1.0 and tr > 0.0:
        size = np.sqrt((1.0 - rho) * tr / noise.jump_rate)
        counts = rng.poisson(noise.jump_rate * dt, size=count)
        total = int(counts.sum())
        if total:
            rows = np.repeat(np.arange(count), counts)
            modes = rng.choice(noise.dim, size=total, p=gamma / tr)
            signs = rng.integers(0, 2, size=total) * 2 - 1
            np.add.at(out, (rows, modes), size * signs)
    return out


def simulate_paths(model, noise, gmap, x0_mean, steps, paths, seed, x0_cov=None, substeps=1):
    """Every path of simulate_moments' run for the same arguments, as a
    (P, steps + 1, N) array, with the (P, steps * substeps, M) increments
    that drove them: batch b of mc._batch_bounds fills its own rows from
    the stream [seed, b] by the package's own step(b, block). The stepper
    looks up mc.sample_increments for every run of steps it draws ahead
    and draws into a buffer it reuses, so the increments are recorded by
    wrapping it and copying each run while the batches are stepped."""
    step = mc._batch_stepper(model, noise, gmap, x0_mean, steps, paths, seed, x0_cov, substeps)
    out = np.empty((paths, steps + 1, model.dim))
    incs = np.empty((paths, steps * substeps, noise.dim))
    sample, runs = mc.sample_increments, []

    def recorded(*args, **kwargs):
        runs.append(sample(*args, **kwargs).copy())
        return runs[-1]

    mc.sample_increments = recorded
    try:
        for b, (lo, hi) in enumerate(mc._batch_bounds(paths)):
            runs.clear()
            step(b, out[lo:hi])
            incs[lo:hi] = np.concatenate(runs).transpose(1, 0, 2)
    finally:
        mc.sample_increments = sample
    return out, incs


def estimate_paths(paths):
    """Moments of (P, K+1, N) paths over the batches they were simulated
    in, with batch-means standard errors."""
    P = paths.shape[0]
    if P < 2:
        raise ValueError(f"at least two paths are required, got {P}")
    nodes, dim = paths.shape[1:]
    flat = paths.reshape(P, nodes * dim)
    bounds = mc._batch_bounds(P)
    s1 = np.empty((len(bounds), nodes * dim))
    s2 = np.empty((len(bounds), nodes * dim, nodes * dim))
    for b, (lo, hi) in enumerate(bounds):
        dense_sum_batch(flat[lo:hi], s1[b], s2[b])
    return dense_reduce(s1, s2, bounds, nodes, dim)


def dense_sum_batch(block, s1, s2):
    """Write the sum of the rows of a (count, D) block of paths to s1 and
    the sum of their outer products, the whole D x D matrix, to s2."""
    s1[...] = block.sum(axis=0)
    s2[...] = block.T @ block


def dense_reduce(s1, s2, bounds, nodes, dim):
    """The moments of paths from their per-batch sums, s2 of shape
    (nb, D, D): s1[b] and s2[b] are dense_sum_batch of the rows
    bounds[b]. Both are overwritten. The per-batch covariances are formed
    a chunk of (nb, max(1, D // (nb + 2)), D) rows at a time, read
    straight from s2."""
    paths = bounds[-1][1]
    nb, width = s1.shape
    counts = np.array([hi - lo for lo, hi in bounds], dtype=float)
    mean = np.add.reduce(s1, axis=0)
    mean /= paths
    m2 = np.add.reduce(s2, axis=0)
    m2 /= paths
    cov = m2 - np.outer(mean, mean)
    s1 /= counts[:, None]
    s2 /= counts[:, None, None]
    cov_se = np.empty((width, width))
    rows = max(1, width // (nb + 2))
    for r in range(0, width, rows):
        b_cov = s1[:, r:r + rows, None] * s1[:, None, :]
        np.subtract(s2[:, r:r + rows], b_cov, out=b_cov)
        cov_se[r:r + rows] = mc._batch_error(b_cov)
    mean_se = mc._batch_error(s1)
    m2_se = mc._batch_error(s2)
    shape2 = (nodes, dim, nodes, dim)
    return mc.MomentEstimate(
        mean=mean.reshape(nodes, dim),
        second_moment=m2.reshape(shape2),
        covariance=cov.reshape(shape2),
        mean_se=mean_se.reshape(nodes, dim),
        second_moment_se=m2_se.reshape(shape2),
        covariance_se=cov_se.reshape(shape2),
    )


def format_tables():
    """The tables of _format._tables, in its order, with the digit
    characters and trailing zeros of the groups 0..9999 taken by int64
    arithmetic on the groups."""
    e = np.arange(_E_MIN, _E_MAX + 1)
    pow5 = [5 ** int(16 - k) for k in e]
    bits = np.array([p.bit_length() for p in pow5])
    norm = np.array([p << (64 - b) for p, b in zip(pow5, bits)], dtype=np.uint64)
    shift = 16 - e + bits - 1075

    group = np.arange(10**4)
    chars = (group[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
    tails = np.zeros((_CLASSES, 8), dtype=np.uint8)
    tails[:, 0] = ord("\n")
    expo = e < -4
    tails[expo, :5] = np.frombuffer(b"e-00\n", dtype=np.uint8)
    tails[expo, 2:4] += (-e[expo, None] // np.array([10, 1]) % 10).astype(np.uint8)
    lut = np.concatenate([chars.reshape(-1), tails.reshape(-1)]).view(np.uint32)
    zeros = (group[:, None] % np.array([10, 100, 1000, 10**4]) == 0).sum(axis=1)

    p = np.where(expo, 1, e + 1)[:, None, None]
    dot, start = 6 + p, np.where(p > 0, 6, 5 + p)
    n = np.arange(1, 18)[:, None]
    col = np.arange(_NUM)
    body = (((col >= start) & (col < dot))
            | ((col == dot) & (n > p))
            | ((col > dot) & (col <= 6 + n))
            | ((col >= 24) & (col < 25 + 4 * expo[:, None, None])))
    keep = np.stack([body, body | (col == start - 1)])
    return (norm >> _32, norm & _M32, shift, lut, zeros, p.ravel(), dot.ravel(),
            start.ravel() - 1, keep.reshape(-1, _NUM))
