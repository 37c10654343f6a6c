"""Benchmark problem definitions: frozen facts and derivative hygiene."""
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest

from minresls.problems import (
    REGISTRY,
    ProblemSpec,
    build_problem,
    list_problems,
    quadratic,
    quartic_saddle,
    rosenbrock,
    toy_sine,
)


class TestToySine:
    def test_solution_manifold(self):
        spec = toy_sine(n=3)
        assert spec.dim == 6 and spec.f_opt == 0.0
        z = np.concatenate([np.full(3, np.pi / 2), np.ones(3)])   # y = sin(x)
        obj = spec.make_objective()
        assert obj.f(z) == 0.0
        assert np.max(np.abs(obj.grad(z))) == 0.0

    def test_gradient_domination(self):
        # 2 f <= ||grad||^2 everywhere: the y-block of the gradient is the
        # residual itself, so this is analytic, not approximate
        spec = toy_sine(n=20)
        obj = spec.make_objective()
        rng = np.random.default_rng(17)
        for _ in range(25):
            z = rng.uniform(-3.0, 3.0, spec.dim)
            g = obj.grad(z)
            assert 2.0 * obj.f(z) <= g @ g + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            toy_sine(n=0)


class TestQuarticSaddle:
    def test_saddle_and_minima(self):
        spec = quartic_saddle(spectrum=(1.0, -1.0))
        obj = spec.make_objective()
        origin = np.zeros(2)
        assert np.array_equal(obj.grad(origin), origin)
        H0 = np.column_stack([obj.hvp(origin, e) for e in np.eye(2)])
        assert np.array_equal(np.sort(np.diag(H0)), [-1.0, 1.0])
        for sign in (1.0, -1.0):
            xstar = np.array([0.0, sign])
            assert obj.f(xstar) == -0.25
            assert np.max(np.abs(obj.grad(xstar))) <= 1e-15
        assert spec.f_opt == -0.25

    def test_default_spectrum(self):
        spec = quartic_saddle(n=10)
        obj = spec.make_objective()
        H0 = np.column_stack([obj.hvp(np.zeros(10), e) for e in np.eye(10)])
        eigs = np.sort(np.linalg.eigvalsh(H0))
        assert eigs[0] == -1.0 and np.all(eigs[1:] == 1.0)

    def test_start_near_saddle(self):
        spec = quartic_saddle(n=6)
        rng = np.random.default_rng(0)
        draws = [spec.start(rng) for _ in range(20)]
        assert all(0.0 < np.linalg.norm(x) <= 1e-3 for x in draws)
        # deterministic given the generator state
        again = quartic_saddle(n=6).start(np.random.default_rng(0))
        assert np.array_equal(draws[0], again)

    def test_spectrum_validation(self):
        with pytest.raises(ValueError, match="negative"):
            quartic_saddle(spectrum=(1.0, 2.0))
        with pytest.raises(ValueError):
            quartic_saddle(n=1)
        with pytest.raises(ValueError, match="spectrum contains non-finite"):
            quartic_saddle(spectrum=(1.0, np.nan, -1.0))
        with pytest.raises(ValueError, match="n and spectrum exclude each other"):
            quartic_saddle(n=3, spectrum=(1.0, -1.0))
        assert quartic_saddle().dim == 10


class TestRosenbrock:
    def test_minimum_at_ones(self):
        spec = rosenbrock(n=7)
        obj = spec.make_objective()
        assert obj.f(np.ones(7)) == 0.0
        assert np.max(np.abs(obj.grad(np.ones(7)))) == 0.0
        assert spec.f_opt == 0.0

    def test_classic_2d_value(self):
        obj = rosenbrock(n=2).make_objective()
        assert obj.f(np.array([0.0, 0.0])) == 1.0
        assert obj.f(np.array([-1.0, 1.0])) == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            rosenbrock(n=1)

    @staticmethod
    def reference(x, v):
        """The oracles as plain numpy expressions, allocating temporaries."""
        head, tail = x[:-1], x[1:]
        f = float(np.sum(100.0 * (tail - head ** 2) ** 2 + (1.0 - head) ** 2))
        g = np.zeros_like(x)
        gap = tail - head ** 2
        g[:-1] = -400.0 * head * gap - 2.0 * (1.0 - head)
        g[1:] += 200.0 * gap
        h = np.zeros_like(x)
        vh, vt = v[:-1], v[1:]
        diag_head = 1200.0 * head ** 2 - 400.0 * tail + 2.0
        h[:-1] += diag_head * vh
        h[1:] += 200.0 * vt
        off = -400.0 * head
        h[:-1] += off * vt
        h[1:] += off * vh
        return f, g, h

    @pytest.mark.parametrize("n", [2, 3, 1000])
    def test_oracles_bitwise_equal_to_reference(self, n):
        # two objectives of one spec share hvp's work vectors in one thread;
        # interleaving their calls must not leak one evaluation into the next
        spec = rosenbrock(n)
        objs = (spec.make_objective(), spec.make_objective())
        rng = np.random.default_rng(n)
        for i in range(6):
            x = rng.uniform(-2.0, 2.0, n)
            v = rng.standard_normal(n)
            f_ref, g_ref, h_ref = self.reference(x, v)
            first, second = objs[i % 2], objs[(i + 1) % 2]
            h = first.hvp(x, v)
            assert second.f(x) == f_ref
            assert np.array_equal(first.grad(x), g_ref)
            assert np.array_equal(h, h_ref)
            assert np.array_equal(second.hvp(x, v), h_ref)
            assert first.f(x) == f_ref

    @pytest.mark.parametrize("n", [2, 3, 1000])
    def test_product_keeps_the_signed_zeros_of_the_reference(self, n):
        # the product writes its first term directly, where the reference
        # adds it to zeros: -0.0 must still come out as the reference's +0.0
        rng = np.random.default_rng(n)
        x = rng.uniform(0.1, 2.0, n)
        product = rosenbrock(n)._hess(x)
        signs = np.where(np.arange(n) % 2 == 0, -0.0, 0.0)
        for v in (np.full(n, -0.0), signs, -signs, np.where(rng.random(n) < 0.5, -0.0, 0.0)):
            assert product(v).tobytes() == self.reference(x, v)[2].tobytes()

    def test_hvp_results_are_fresh(self):
        obj = rosenbrock(n=50).make_objective()
        rng = np.random.default_rng(2)
        x = rng.uniform(0.0, 1.0, 50)
        h1 = obj.hvp(x, rng.standard_normal(50))
        kept = h1.copy()
        h2 = obj.hvp(rng.uniform(0.0, 1.0, 50), rng.standard_normal(50))
        assert h2 is not h1 and not np.shares_memory(h1, h2)
        assert np.array_equal(h1, kept)

    @pytest.mark.parametrize("oracle, vectors",
                             [("f", 0), ("grad", 1), ("hvp", 1), ("hess", 2)])
    def test_oracle_allocates_only_its_result(self, oracle, vectors):
        # after a first call at a read-only point, as solve passes its
        # iterates: the spec owns the work vectors, a product reuses the
        # point's map, and building a map allocates its diagonal and
        # off-diagonal; the plain expressions peak at about 4 vectors
        n = 10_000
        spec = rosenbrock(n)
        obj = spec.make_objective()
        rng = np.random.default_rng(1)
        x = rng.uniform(0.0, 1.0, n)
        x.flags.writeable = False
        args = (x, rng.standard_normal(n)) if oracle == "hvp" else (x,)
        call = spec._hess if oracle == "hess" else getattr(obj, oracle)
        call(*args)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            call(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < (vectors + 0.5) * 8 * n


class TestQuadratic:
    def test_default_is_half_norm_squared(self):
        spec = quadratic(n=4)
        obj = spec.make_objective()
        rng = np.random.default_rng(5)
        x = rng.standard_normal(4)
        assert obj.f(x) == 0.5 * float(x @ x)
        assert np.array_equal(obj.grad(x), x)
        assert spec.f_opt == 0.0

    def test_indefinite_has_no_reference_value(self):
        assert quadratic(spectrum=(1.0, -2.0)).f_opt is None

    def test_validation(self):
        with pytest.raises(ValueError, match="n must be at least 1"):
            quadratic(n=0)
        with pytest.raises(ValueError, match="spectrum must be nonempty"):
            quadratic(spectrum=())
        with pytest.raises(ValueError, match="spectrum contains non-finite"):
            quadratic(spectrum=(1.0, np.inf))
        with pytest.raises(ValueError, match="n and spectrum exclude each other"):
            quadratic(spectrum=(1.0, 2.0, 3.0), n=5)
        assert quadratic().dim == 10


class TestRegistry:
    def test_listing(self):
        assert list_problems() == sorted(REGISTRY)
        assert {"toy_sine", "quartic_saddle", "rosenbrock", "quadratic"} <= set(REGISTRY)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown problem"):
            build_problem("nonesuch")

    @pytest.mark.parametrize("name", ["toy_sine", "rosenbrock", "quartic_saddle",
                                      "quadratic"])
    @pytest.mark.parametrize("n", [12.0, "abc", True])
    def test_size_must_be_an_integer(self, name, n):
        with pytest.raises(ValueError, match=f"n must be an integer, got {n!r}"):
            build_problem(name, n=n, self_test=False)
        # any integral type passes
        spec = build_problem(name, n=np.int64(12), self_test=False)
        assert spec.start(np.random.default_rng(0)).size == spec.dim

    def test_params_forwarded(self):
        spec = build_problem("quadratic", spectrum=(3.0, 1.0))
        assert spec.dim == 2

    def test_self_test_runs_by_default(self):
        build_problem("toy_sine", n=3)          # raises if derivatives drift

    def test_self_test_catches_broken_gradient(self):
        spec = build_problem("quadratic", n=3)
        broken = type(spec)(spec.name, spec.dim, spec._f,
                            lambda x: 2.0 * x, spec._hess, spec.start)
        with pytest.raises(AssertionError, match="gradient gap"):
            broken.self_test()

    @pytest.mark.parametrize("name", ["toy_sine", "quartic_saddle", "rosenbrock",
                                      "quadratic"])
    def test_self_test_accepts_correct_builtins_at_scale(self, name):
        # rounding in f grows with n; the gaps' scales keep it below FD_TOL.
        # The bound only guards the O(n) cost: a per-coordinate scan of
        # n = 1e5 takes minutes, the directional checks well under a second
        t0 = time.perf_counter()
        spec = build_problem(name, n=100_000)
        assert spec.dim >= 100_000
        assert time.perf_counter() - t0 < 10.0

    def test_self_test_catches_one_wrong_gradient_entry(self):
        # a 1% error in one of 1e4 entries barely moves g'v; the HVP check,
        # which differences the gradient entrywise, rejects it
        spec = rosenbrock(n=10_000)

        def grad(x):
            g = spec._grad(x)
            g[5_000] *= 1.01
            return g
        broken = ProblemSpec(spec.name, spec.dim, spec._f, grad, spec._hess, spec.start)
        with pytest.raises(AssertionError, match="gap"):
            broken.self_test(points=3)

    def test_fresh_counters_per_objective(self):
        spec = build_problem("quadratic", n=2)
        a, b = spec.make_objective(), spec.make_objective()
        a.f(np.zeros(2))
        assert a.oracle_count == 1.0 and b.oracle_count == 0.0


# Test-only copies of each builtin's grad and hess with one sign switch per
# additive term, grad terms first. ``s[k] = -1`` flips term k; all +1 is the
# builtin. The counts are the terms of the builtin's expressions as written.
def _toy_sine_terms(n, s):
    def grad(z):
        x, y = z[:n], z[n:]
        e = y - np.sin(x)
        return np.concatenate([s[0] * (-np.cos(x) * e), s[1] * e])

    def hvp(z, v):
        x, y = z[:n], z[n:]
        e = y - np.sin(x)
        cx = np.cos(x)
        vx, vy = v[:n], v[n:]
        hx = s[2] * (np.sin(x) * e * vx) + s[3] * (cx * cx * vx) + s[4] * (-cx * vy)
        hy = s[5] * (-cx * vx) + s[6] * vy
        return np.concatenate([hx, hy])
    return grad, lambda z: partial(hvp, z)


def _quartic_saddle_terms(n, s):
    a = np.ones(n)
    a[1] = -1.0

    def grad(x):
        return s[0] * (a * x) + s[1] * (float(x @ x) * x)

    def hvp(x, v):
        return (s[2] * (a * v) + s[3] * (float(x @ x) * v)
                + s[4] * (2.0 * float(x @ v) * x))
    return grad, lambda x: partial(hvp, x)


def _rosenbrock_terms(n, s):
    def grad(x):
        g = np.zeros_like(x)
        head, tail = x[:-1], x[1:]
        gap = tail - head ** 2
        g[:-1] = s[0] * (-400.0 * head * gap) + s[1] * (-2.0 * (1.0 - head))
        g[1:] += s[2] * (200.0 * gap)
        return g

    def hvp(x, v):
        h = np.zeros_like(x)
        head, tail = x[:-1], x[1:]
        vh, vt = v[:-1], v[1:]
        h[:-1] += (s[3] * (1200.0 * head ** 2 * vh) + s[4] * (-400.0 * tail * vh)
                   + s[5] * (2.0 * vh) + s[6] * (-400.0 * head * vt))
        h[1:] += s[7] * (200.0 * vt) + s[8] * (-400.0 * head * vh)
        return h
    return grad, lambda x: partial(hvp, x)


def _quadratic_terms(n, s):
    lam = np.ones(n)
    return (lambda x: s[0] * (lam * x)), (lambda x: lambda v: s[1] * (lam * v))


TERM_COPIES = {
    "toy_sine": (_toy_sine_terms, 7),
    "quartic_saddle": (_quartic_saddle_terms, 5),
    "rosenbrock": (_rosenbrock_terms, 9),
    "quadratic": (_quadratic_terms, 2),
}


def _with_terms(name, n, s):
    spec = REGISTRY[name](n=n)
    grad, hess = TERM_COPIES[name][0](n, s)
    return spec, ProblemSpec(spec.name, spec.dim, spec._f, grad, hess, spec.start)


class TestSelfTestMutations:
    @pytest.mark.parametrize("name", sorted(TERM_COPIES))
    def test_unswitched_copies_match_builtins(self, name):
        spec, copy = _with_terms(name, 50, np.ones(TERM_COPIES[name][1]))
        rng = np.random.default_rng(21)
        for _ in range(5):
            x = rng.uniform(0.0, 1.0, spec.dim)
            v = rng.standard_normal(spec.dim)
            for ref, got in ((spec._grad(x), copy._grad(x)),
                             (spec._hess(x)(v), copy._hess(x)(v))):
                assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [10, 10_000])
    @pytest.mark.parametrize("name", sorted(TERM_COPIES))
    def test_every_sign_flip_fails_self_test(self, name, n):
        # build_problem's three probe points must reject each single flip
        survivors = []
        for k in range(TERM_COPIES[name][1]):
            s = np.ones(TERM_COPIES[name][1])
            s[k] = -1.0
            _, mutant = _with_terms(name, n, s)
            try:
                mutant.self_test(points=3)
            except AssertionError:
                continue
            survivors.append(k)
        assert survivors == []
