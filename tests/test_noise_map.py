import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import spde_moments
import spde_moments.noise_map as noise_map
from spde_moments import (
    AffineNoiseMap,
    MomentLoad,
    NoiseModel,
    SpectralModel,
    TimeGrid,
    assemble_per_mode,
    g1_v_to_hs_norm,
    lyapunov_solve,
    picard_solve_second_moment,
    rhs_covariance,
    rhs_second_moment,
    simulate_moments,
)

from dense_reference import kronecker_matrix, unblocked_multiplicative_form

PACKAGE = Path(spde_moments.__file__).resolve().parent
ROUTES = ("montecarlo", "oracle", "petrov_galerkin")


def imported_modules(path):
    """Modules of the package that a source file imports, by short name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("spde_moments."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "spde_moments":
                    continue
                module = module.partition(".")[2]
            if module:
                names.add(module.split(".")[0])
            else:  # "from . import x" names the modules themselves
                names.update(alias.name for alias in node.names)
    return names


class TestImportGraph:
    def test_routes_do_not_import_one_another(self):
        for route in ROUTES:
            others = set(ROUTES) - {route}
            assert imported_modules(PACKAGE / f"{route}.py") & others == set(), route

    def test_noise_map_names_have_one_home(self):
        homes = {}
        for path in sorted(PACKAGE.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                    homes.setdefault(node.name, []).append(path.stem)
        for name in ("AffineNoiseMap", "action_bytes", "g_apply_columns", "g1_v_to_hs_norm",
                     "mean_form", "multiplicative_form", "symmetric_action"):
            assert homes.get(name) == ["noise_map"], name
        # the symmetric action is the one matrix of the multiplicative form:
        # no module builds an (N^2, N^2) one, or the pair products behind it
        assert "multiplicative_matrix" not in homes
        assert "pair_products" not in homes

    def test_input_rules_have_one_home(self):
        # the rules for a mean and a second moment, and the words of their
        # refusals, live in spectral; every other module calls them
        homes = {}
        for path in sorted(PACKAGE.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.FunctionDef):
                    homes.setdefault(node.name, []).append(path.stem)
                elif (path.stem != "spectral" and isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    for words in ("must be symmetric", "semidefinite"):
                        assert words not in node.value, (path.stem, node.value)
        for name in ("state_vector", "moment_matrix"):
            assert homes.get(name) == ["spectral"], name

    def test_triangle_layout_has_one_home(self):
        # the packed upper triangle is laid out in spectral alone: no other
        # module calls np.triu_indices or writes where a row of it starts,
        # a floor division by 2 of a difference such as r (2 n + 1 - r) / 2
        def subtracts(node):
            return any(isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Sub)
                       for sub in ast.walk(node))

        homes = {}
        for path in sorted(PACKAGE.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.FunctionDef):
                    homes.setdefault(node.name, []).append(path.stem)
                elif path.stem == "spectral":
                    continue
                elif isinstance(node, (ast.Attribute, ast.Name)):
                    name = node.attr if isinstance(node, ast.Attribute) else node.id
                    assert name != "triu_indices", path.stem
                elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
                      and isinstance(node.right, ast.Constant) and node.right.value == 2):
                    assert not subtracts(node.left), (path.stem, ast.unparse(node))
        for name in ("triangle_positions", "triangle_start", "unpack_triangle"):
            assert homes.get(name) == ["spectral"], name

    def test_public_surface_is_what_the_modules_list(self):
        # every name in a module's __all__ is defined at its top level, and
        # the package re-exports only names some module lists
        listed = set()
        for path in sorted(PACKAGE.glob("*.py")):
            body = ast.parse(path.read_text(encoding="utf-8")).body
            defined, public = set(), set()
            for node in body:
                if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                    defined.add(node.name)
                elif isinstance(node, ast.Assign):
                    targets = {t.id for t in node.targets if isinstance(t, ast.Name)}
                    defined |= targets
                    if "__all__" in targets:
                        public = set(ast.literal_eval(node.value))
            assert public <= defined, (path.stem, public - defined)
            listed |= public
        init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body
        exported = {alias.asname or alias.name for node in init
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert exported and exported <= listed, exported - listed

    def test_every_public_name_has_a_caller(self):
        # every name in a module's __all__ is referenced, by name, attribute
        # or import, by another module of the package, by its own module
        # outside its definition and __all__, by a script or by the
        # benchmark; the package's re-exports and the tests do not count,
        # so what only the acceptance criteria call lives with the tests
        def references(trees):
            names = set()
            for node in (node for tree in trees for node in ast.walk(tree)):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            return names

        def assigned(node):
            targets = node.targets if isinstance(node, ast.Assign) else []
            return {t.id for t in targets if isinstance(t, ast.Name)}

        root = Path(__file__).resolve().parent.parent
        outside = [*sorted((root / "scripts").glob("*.py")), *sorted((root / "bench").glob("*.py"))]
        called = references(ast.parse(path.read_text(encoding="utf-8")) for path in outside)
        modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")).body
                   for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}
        uncalled = []
        for stem, body in modules.items():
            public = next((ast.literal_eval(node.value) for node in body
                           if "__all__" in assigned(node)), [])
            others = references(node for other, nodes in modules.items() if other != stem
                                for node in nodes)
            for name in public:
                own = references(node for node in body if "__all__" not in assigned(node)
                                 and getattr(node, "name", None) != name
                                 and name not in assigned(node))
                if name not in called | others | own:
                    uncalled.append(f"{stem}.{name}")
        assert uncalled == [], uncalled


# A two-mode model with a one-mode noise, and a noise map that is wrong in
# exactly one of its two dimensions.
MODEL = SpectralModel(eigenvalues=[1.0, 4.0], horizon=1.0)
NOISE = NoiseModel(q_eigenvalues=[1.0])
SYSTEM = assemble_per_mode(MODEL, TimeGrid(steps=4, horizon=1.0))
MISMATCHED = {
    "state": AffineNoiseMap(g1=np.full((3, 3, 1), 0.1), g2=np.ones((3, 1))),
    "noise": AffineNoiseMap(g1=np.full((2, 2, 3), 0.1), g2=np.ones((2, 3))),
}
ENTRY_POINTS = {
    "noise_quadratic_form":  # the whole quadratic action: multiplicative plus mean part
        lambda g: (noise_map.multiplicative_form(noise_map.symmetric_action(g, NOISE), np.eye(2))
                   + noise_map.mean_form(g, NOISE, np.ones(2))),
    # the action refuses the noise, and the form a moment of another state
    "symmetric_action":
        lambda g: noise_map.multiplicative_form(noise_map.symmetric_action(g, NOISE), np.eye(2)),
    "mean_form": lambda g: noise_map.mean_form(g, NOISE, np.ones(2)),
    "g1_v_to_hs_norm": lambda g: g1_v_to_hs_norm(g, MODEL, NOISE),
    "lyapunov_solve":
        lambda g: lyapunov_solve(MODEL, NOISE, g, np.ones(2), np.eye(2), 4),
    "simulate_moments":
        lambda g: simulate_moments(MODEL, NOISE, g, np.ones(2), 4, 8, seed=0),
    "rhs_second_moment":
        lambda g: rhs_second_moment(SYSTEM, NOISE, g, np.ones((4, 2)), np.eye(2)),
    "rhs_covariance":
        lambda g: rhs_covariance(SYSTEM, NOISE, g, np.ones((4, 2)), np.eye(2)),
    "picard_solve_second_moment":
        lambda g: picard_solve_second_moment(
            SYSTEM, NOISE, g, MomentLoad(initial=np.eye(2), spatial=np.zeros((4, 2, 2)))
        ),
}


@pytest.mark.parametrize("kind", sorted(MISMATCHED))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_dimension_mismatch_raises(entry, kind):
    with pytest.raises(ValueError, match=f"noise map {kind} dimension"):
        ENTRY_POINTS[entry](MISMATCHED[kind])


def symmetric(rng_draw):
    """A draw made symmetric: the draw plus its transpose over the last two axes."""
    return rng_draw + np.swapaxes(rng_draw, -1, -2)


class TestMultiplicativeForm:
    @staticmethod
    def coupling(n, modes, seed=5):
        rng = np.random.default_rng(seed)
        gmap = AffineNoiseMap(g1=rng.standard_normal((n, n, modes)), g2=np.zeros((n, modes)))
        noise = NoiseModel(q_eigenvalues=rng.random(modes) + 0.1, wiener_fraction=0.5,
                           jump_rate=2.0)
        return gmap, noise, rng

    @pytest.mark.parametrize("block_bytes", [None, 3 * 8 * 3 * 5 * 5])
    @pytest.mark.parametrize("lead", [(), (1,), (7,), (0,), (4, 3)])
    def test_blocks_equal_one_pass_bitwise(self, block_bytes, lead):
        # small integers and dyadic gamma make every product and partial sum
        # exact, so the form equals the two-matmul contraction bit for bit
        # whatever the order of summation; the batch goes through in one
        # pass (None) or a block at a time, 3 * 8 * M * N * N bytes holding
        # three matrices, so the 7- and 12-matrix batches end in a short block
        n, modes = 5, 3
        rng = np.random.default_rng(5)
        gmap = AffineNoiseMap(g1=rng.integers(-3, 4, (n, n, modes)).astype(float),
                              g2=np.zeros((n, modes)))
        noise = NoiseModel(q_eigenvalues=np.array([0.5, 1.0, 2.0]), wiener_fraction=0.5,
                           jump_rate=2.0)
        action = noise_map.symmetric_action(gmap, noise)
        second = symmetric(rng.integers(-4, 5, lead + (n, n)).astype(float))
        if block_bytes is None:
            blocked = noise_map.multiplicative_form(action, second)
        else:
            block = block_bytes // (8 * modes * n * n)
            flat = second.reshape(-1, n, n)
            blocked = np.empty(flat.shape)
            for start in range(0, len(flat), block):
                blocked[start:start + block] = noise_map.multiplicative_form(
                    action, flat[start:start + block])
            blocked = blocked.reshape(second.shape)
        assert blocked.shape == second.shape
        assert np.array_equal(blocked, unblocked_multiplicative_form(gmap, noise, second))

    @pytest.mark.parametrize("lead", [(), (1,), (7,), (0,), (4, 3)])
    def test_matches_two_matmul_contraction(self, lead):
        # symmetric second moments, the only ones the routes meet
        gmap, noise, rng = self.coupling(5, 3)
        second = symmetric(rng.standard_normal(lead + (5, 5)))
        form = noise_map.multiplicative_form(noise_map.symmetric_action(gmap, noise), second)
        reference = unblocked_multiplicative_form(gmap, noise, second)
        assert form.shape == second.shape
        assert np.max(np.abs(form - reference), initial=0.0) <= (
            1e-13 * np.max(np.abs(reference), initial=0.0))

    def test_reads_the_upper_triangle_alone(self):
        # a nonsymmetric M gives the form of its upper triangle mirrored,
        # bit for bit; NaN below the diagonal is never read
        gmap, noise, rng = self.coupling(5, 3)
        action = noise_map.symmetric_action(gmap, noise)
        second = rng.standard_normal((6, 5, 5))
        mirrored = np.triu(second) + np.swapaxes(np.triu(second, 1), -1, -2)
        expected = noise_map.multiplicative_form(action, mirrored)
        assert np.array_equal(noise_map.multiplicative_form(action, second), expected)
        rows, cols = np.tril_indices(5, -1)
        unread = second.copy()
        unread[:, rows, cols] = np.nan
        assert np.array_equal(noise_map.multiplicative_form(action, unread), expected)
        assert np.max(np.abs(second - np.swapaxes(second, -1, -2))) > 0.1

    def test_matrix_matches_index_loop(self):
        # T[(i, k), (a, b)] = sum_m gamma_m g1[a, i, m] g1[b, k, m], and the
        # form of a nonsymmetric M is M.ravel() @ T; the symmetric action's
        # row (i, k), i <= k, is T's row (i, k) plus, for i < k, row (k, i),
        # and the form of a symmetric M is M[triu] @ S. At N = 3 every
        # entry is held to its own relative tolerance. At N = 20 and 32
        # BLAS rounds the action's block products otherwise than the one
        # product of T; entries that cancel carry rounding relative to the
        # largest, so there each tolerance also bounds it against that scale
        def close(value, reference, rtol, n):
            atol = 0.0 if n == 3 else rtol * np.max(np.abs(reference))
            np.testing.assert_allclose(value, reference, rtol=rtol, atol=atol)

        modes = 2
        for n in (3, 20, 32):
            gmap, noise, rng = self.coupling(n, modes)
            gamma, g1 = noise.q_eigenvalues, gmap.g1
            expected = np.zeros((n * n, n * n))
            for i in range(n):
                for k in range(n):
                    # the (a, b) entries at once, summed over m in the same order
                    expected[i * n + k] = sum(np.outer(gamma[m] * g1[:, i, m], g1[:, k, m])
                                              for m in range(modes)).ravel()
            tmat = kronecker_matrix(gmap, noise)
            close(tmat, expected, 1e-14, n)
            rows, cols = np.triu_indices(n)
            folded = (expected[rows * n + cols]
                      + (rows != cols)[:, None] * expected[cols * n + rows])
            action = noise_map.symmetric_action(gmap, noise)
            assert action.shape == (n * (n + 1) // 2, n * n)
            close(action, folded, 1e-14, n)
            second = rng.standard_normal((n, n))
            assert np.max(np.abs(second - second.T)) > 0.1
            brute = sum(gamma[m] * g1[:, :, m] @ second @ g1[:, :, m].T for m in range(modes))
            close(second.ravel() @ tmat, brute.ravel(), 1e-13, n)
            second = symmetric(second)
            brute = sum(gamma[m] * g1[:, :, m] @ second @ g1[:, :, m].T for m in range(modes))
            close(second[rows, cols] @ action, brute.ravel(), 1e-13, n)
            close(noise_map.multiplicative_form(action, second), brute, 1e-13, n)

    def test_mean_form_is_the_quadratic_form_at_zero_fluctuation(self):
        # bit for bit on a stack of means: the multiplicative form of zeros
        # is exactly zero, and adding it changes no bit
        gmap, noise, rng = self.coupling(4, 3)
        gmap = AffineNoiseMap(g1=gmap.g1, g2=rng.standard_normal((4, 3)))
        means = rng.standard_normal((6, 4))
        mean_terms = noise_map.mean_form(gmap, noise, means)
        assert mean_terms.shape == (6, 4, 4)
        action = noise_map.symmetric_action(gmap, noise)
        np.testing.assert_array_equal(
            mean_terms, noise_map.multiplicative_form(action, np.zeros((4, 4)))
            + noise_map.mean_form(gmap, noise, means))

    def action_peak(self, n, modes):
        """The symmetric action of an (n, n, modes) coupling and the
        traced peak of building it."""
        gmap, noise, _ = self.coupling(n, modes)
        tracemalloc.start()
        try:
            action = noise_map.symmetric_action(gmap, noise)
            return action, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n, modes", [(4, 4), (16, 16), (32, 32), (8, 64), (4, 64)],
                             ids=["4", "16", "32", "8-64", "4-64"])
    def test_action_peak_within_its_count(self, n, modes):
        # the action, g1's slices and their weighted copy, and one block's
        # mirrors; with more noise modes than N / 2 the slices outweigh
        # the block
        action, peak = self.action_peak(n, modes)
        assert action.nbytes < peak <= noise_map.action_bytes(n, modes)

    @pytest.mark.parametrize("n", [24, 32])
    def test_action_build_holds_no_pair_products(self, n):
        # no (N^2, N^2) array, 8 N^4 bytes, is formed on the way to the
        # action, about half its size
        _, peak = self.action_peak(n, n)
        assert peak < 8 * n ** 4

    def test_peak_memory_bounded_at_scale(self):
        # K = 4096 intervals of N = 16 modes against M = 16 noise modes: the
        # two-matmul contraction holds two (K, M, N, N) temporaries of
        # 128 MiB; here building the action holds its count, and applying
        # it the action, the (K, p) gathered triangles and the (K, N^2)
        # result
        n, steps = 16, 4096
        gmap, noise, rng = self.coupling(n, n)
        second = rng.standard_normal((steps, n, n))
        tracemalloc.start()
        try:
            noise_map.multiplicative_form(noise_map.symmetric_action(gmap, noise), second)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        p = n * (n + 1) // 2
        assert peak <= noise_map.action_bytes(n, n) + 8 * steps * (p + n * n)
