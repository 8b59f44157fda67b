import numpy as np
import pytest

from slrlab import problems


def fd_gradient(pb, x, h=1e-5):
    """Central-difference gradient, the oracle for analytic gradients."""
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (problems.loss(pb, x + e) - problems.loss(pb, x - e)) / (2 * h)
    return g


def test_quadratic_constants():
    pb = problems.make_quadratic(dim=2, cond=10.0, sigma=0.5, seed=1)
    assert pb.L == 10.0
    assert pb.A == 0.0 and pb.B == 1.0
    assert pb.C == pytest.approx(0.5**2 * 2, abs=0)
    assert pb.f_star == 0.0 and pb.f_lower == 0.0
    assert pb.domain_box is None
    np.testing.assert_allclose(pb.eigs, [1.0, 10.0])


def test_quadratic_dim1_uses_cond_as_eigenvalue():
    pb = problems.make_quadratic(dim=1, cond=7.0, sigma=0.0)
    np.testing.assert_allclose(pb.eigs, [7.0])
    assert pb.L == 7.0


def test_quadratic_eigs_logspaced():
    pb = problems.make_quadratic(dim=4, cond=100.0, sigma=0.0)
    eigs = pb.eigs
    assert eigs[0] == 1.0 and eigs[-1] == 100.0
    ratios = eigs[1:] / eigs[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)


def test_quadratic_loss_and_gradient():
    pb = problems.make_quadratic(dim=2, cond=10.0, sigma=0.0)
    x = np.array([2.0, -1.0])
    # f = (1*4 + 10*1)/2
    assert problems.loss(pb, x) == pytest.approx(7.0, abs=0)
    np.testing.assert_allclose(problems.full_gradient(pb, x), [2.0, -10.0])
    np.testing.assert_allclose(problems.full_gradient(pb, x), fd_gradient(pb, x), atol=1e-6)


def test_rosenbrock_values():
    pb = problems.make_rosenbrock(sigma=0.5)
    assert pb.dim == 2
    assert pb.L == 6402.0
    assert pb.C == pytest.approx(2 * 0.5**2, abs=0)
    assert pb.domain_box == (-2.0, 2.0)
    assert problems.loss(pb, np.ones(2)) == 0.0
    np.testing.assert_allclose(problems.full_gradient(pb, np.zeros(2)), [-2.0, 0.0])
    np.testing.assert_allclose(problems.full_gradient(pb, np.ones(2)), [0.0, 0.0], atol=0)


def test_rosenbrock_gradient_matches_fd():
    pb = problems.make_rosenbrock(sigma=0.0)
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.uniform(-2.0, 2.0, size=2)
        np.testing.assert_allclose(problems.full_gradient(pb, x), fd_gradient(pb, x),
                                   rtol=1e-5, atol=1e-5)


def test_rosenbrock_curvature_bound_on_box():
    # row-sum bound on the Hessian over the box: both entries of every row
    # summed in absolute value stay below L
    pb = problems.make_rosenbrock(sigma=0.0)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(500):
        x = rng.uniform(-2.0, 2.0, size=2)
        h11 = 2.0 - 400.0 * x[1] + 1200.0 * x[0] ** 2
        h12 = -400.0 * x[0]
        h22 = 200.0
        worst = max(worst, abs(h11) + abs(h12), abs(h12) + h22)
    assert worst <= pb.L


def test_logreg_loss_at_origin_is_ln2():
    pb = problems.make_logreg_nonconvex(n=50, d=4, reg=0.1, seed=3)
    assert problems.loss(pb, np.zeros(4)) == pytest.approx(np.log(2.0), abs=1e-15)


def test_logreg_gradient_matches_fd():
    pb = problems.make_logreg_nonconvex(n=30, d=3, reg=0.05, seed=7)
    rng = np.random.default_rng(8)
    for _ in range(5):
        x = rng.standard_normal(3)
        np.testing.assert_allclose(problems.full_gradient(pb, x), fd_gradient(pb, x),
                                   rtol=1e-5, atol=1e-6)


def test_logreg_constants():
    pb = problems.make_logreg_nonconvex(n=40, d=5, reg=0.1, seed=0)
    X = pb.data
    lam = np.linalg.eigvalsh(X.T @ X / len(X)).max()
    assert pb.L == pytest.approx(lam / 4.0 + 2 * 0.1, rel=1e-12)
    row_max = (X * X).sum(axis=1).max()
    pen = 0.1 * np.sqrt(5) * problems._PENALTY_GRAD_MAX
    assert pb.C == pytest.approx(2 * row_max + 2 * pen**2, rel=1e-12)
    assert pb.f_star is None
    assert pb.f_lower == 0.0
    assert set(np.unique(pb.y)) <= {-1.0, 1.0}


def test_penalty_gradient_max_constant():
    # d/dx of x^2/(1+x^2) peaks at x = 1/sqrt(3)
    xs = np.linspace(-5, 5, 200001)
    d = np.abs(2 * xs / (1 + xs**2) ** 2)
    assert d.max() <= problems._PENALTY_GRAD_MAX + 1e-9
    assert d.max() == pytest.approx(problems._PENALTY_GRAD_MAX, abs=1e-8)


def test_summand_mean_is_full_gradient():
    pb = problems.make_logreg_nonconvex(n=25, d=4, reg=0.1, seed=5)
    rng = np.random.default_rng(6)
    for _ in range(3):
        x = rng.standard_normal(4)
        acc = np.zeros(4)
        for i in range(len(pb.y)):
            acc += pb.step_gradient(x[None], np.array([i]))[0]
        acc /= len(pb.y)
        np.testing.assert_allclose(acc, problems.full_gradient(pb, x), atol=1e-12)


def test_stochastic_gradient_unbiased_quadratic():
    pb = problems.make_quadratic(dim=3, cond=10.0, sigma=0.2)
    x = np.array([1.0, -2.0, 0.5])
    rng = np.random.default_rng(123)
    n = 200_000
    acc = np.zeros(3)
    sq = 0.0
    for _ in range(n):
        g = problems.stochastic_gradient(pb, x, rng).vector
        acc += g
        sq += float(g @ g)
    mean = acc / n
    full = problems.full_gradient(pb, x)
    se = 0.2 / np.sqrt(n)
    np.testing.assert_allclose(mean, full, atol=4 * se)
    # second moment: ||grad||^2 + sigma^2 * dim
    expect = float(full @ full) + 0.2**2 * 3
    assert sq / n == pytest.approx(expect, rel=5e-3)


def test_stochastic_gradient_noiseless_consumes_no_randomness():
    pb = problems.make_quadratic(dim=2, cond=10.0, sigma=0.0)
    rng = np.random.default_rng(0)
    state_before = rng.bit_generator.state["state"]["state"]
    gs = problems.stochastic_gradient(pb, np.ones(2), rng)
    state_after = rng.bit_generator.state["state"]["state"]
    assert state_before == state_after
    assert gs.draw is None
    np.testing.assert_array_equal(gs.vector, problems.full_gradient(pb, np.ones(2)))


def test_stochastic_gradient_logreg_draw_is_index():
    pb = problems.make_logreg_nonconvex(n=20, d=3, reg=0.1, seed=2)
    rng = np.random.default_rng(2)
    gs = problems.stochastic_gradient(pb, np.ones(3), rng)
    assert isinstance(gs.draw, int) and 0 <= gs.draw < 20
    np.testing.assert_array_equal(gs.vector, pb.step_gradient(np.ones((1, 3)), np.array([gs.draw]))[0])


def test_expected_smoothness_witness():
    # E||g||^2 <= A (f - f*) + B ||grad f||^2 + C at random points
    rng = np.random.default_rng(42)
    pb = problems.make_logreg_nonconvex(n=30, d=4, reg=0.1, seed=9)
    n = len(pb.y)
    for _ in range(20):
        x = rng.standard_normal(4) * 2
        second = sum(float(g @ g) for g in
                     (pb.step_gradient(x[None], np.array([i]))[0] for i in range(n))) / n
        full = problems.full_gradient(pb, x)
        bound = pb.A * (problems.loss(pb, x) - pb.f_lower) + pb.B * float(full @ full) + pb.C
        assert second <= bound + 1e-12
    pb = problems.make_quadratic(dim=3, cond=5.0, sigma=0.3)
    for _ in range(20):
        x = rng.standard_normal(3) * 3
        full = problems.full_gradient(pb, x)
        second = float(full @ full) + 0.3**2 * 3  # exact for additive noise
        bound = pb.A * (problems.loss(pb, x) - pb.f_star) + pb.B * float(full @ full) + pb.C
        assert second <= bound + 1e-12


def test_smoothness_witness():
    rng = np.random.default_rng(21)
    pb = problems.make_quadratic(dim=4, cond=50.0, sigma=0.0)
    for _ in range(50):
        x, y = rng.standard_normal(4) * 5, rng.standard_normal(4) * 5
        dg = np.linalg.norm(problems.full_gradient(pb, x) - problems.full_gradient(pb, y))
        assert dg <= pb.L * np.linalg.norm(x - y) * (1 + 1e-9)
    pb = problems.make_rosenbrock(sigma=0.0)
    lo, hi = pb.domain_box
    for _ in range(200):
        x, y = rng.uniform(lo, hi, 2), rng.uniform(lo, hi, 2)
        dg = np.linalg.norm(problems.full_gradient(pb, x) - problems.full_gradient(pb, y))
        assert dg <= pb.L * np.linalg.norm(x - y) * (1 + 1e-9)
    pb = problems.make_logreg_nonconvex(n=40, d=3, reg=0.1, seed=4)
    for _ in range(50):
        x, y = rng.standard_normal(3) * 4, rng.standard_normal(3) * 4
        dg = np.linalg.norm(problems.full_gradient(pb, x) - problems.full_gradient(pb, y))
        assert dg <= pb.L * np.linalg.norm(x - y) * (1 + 1e-9)


def test_loss_respects_lower_bounds():
    rng = np.random.default_rng(17)
    for pb in (problems.make_quadratic(dim=3, cond=10.0, sigma=0.0),
               problems.make_rosenbrock(sigma=0.0)):
        for _ in range(50):
            x = rng.standard_normal(pb.dim) * 2
            assert problems.loss(pb, x) >= pb.f_star
    pb = problems.make_logreg_nonconvex(n=20, d=3, reg=0.1, seed=1)
    for _ in range(50):
        x = rng.standard_normal(3) * 2
        assert problems.loss(pb, x) >= pb.f_lower


def test_input_validation():
    with pytest.raises(ValueError):
        problems.make_quadratic(dim=0, cond=10.0, sigma=0.0)
    with pytest.raises(ValueError):
        problems.make_quadratic(dim=2, cond=0.5, sigma=0.0)
    with pytest.raises(ValueError):
        problems.make_quadratic(dim=2, cond=10.0, sigma=-0.1)
    with pytest.raises(ValueError):
        problems.make_rosenbrock(sigma=-1.0)
    with pytest.raises(ValueError):
        problems.make_logreg_nonconvex(n=0, d=3, reg=0.1)
    with pytest.raises(ValueError):
        problems.make_logreg_nonconvex(n=10, d=3, reg=-0.1)
    pb = problems.make_quadratic(dim=2, cond=10.0, sigma=0.0)
    with pytest.raises(ValueError):
        problems.loss(pb, np.ones(3))
    with pytest.raises(ValueError):
        problems.full_gradient(pb, np.array([1.0, np.nan]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("make, name", [
    (lambda v: problems.make_quadratic(dim=2, cond=v, sigma=0.1), "cond"),
    (lambda v: problems.make_quadratic(dim=2, cond=10.0, sigma=v), "sigma"),
    (lambda v: problems.make_rosenbrock(sigma=v), "sigma"),
    (lambda v: problems.make_logreg_nonconvex(n=10, d=3, reg=v), "reg"),
], ids=["quadratic-cond", "quadratic-sigma", "rosenbrock-sigma", "logreg-reg"])
def test_makers_reject_non_finite_arguments(make, name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        make(value)


def test_determinism_across_constructions():
    a = problems.make_logreg_nonconvex(n=30, d=4, reg=0.1, seed=12)
    b = problems.make_logreg_nonconvex(n=30, d=4, reg=0.1, seed=12)
    np.testing.assert_array_equal(a.data, b.data)
    np.testing.assert_array_equal(a.y, b.y)
    c = problems.make_logreg_nonconvex(n=30, d=4, reg=0.1, seed=13)
    assert not np.array_equal(a.data, c.data)


# Reference copies of the separate loss and gradient oracles and the
# masked logistic that value_and_gradient and _expit replaced; the
# fused forms must reproduce them bit for bit.
def masked_expit(t):
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


def reference_loss_rows(pb, X):
    if isinstance(pb, problems.Quadratic):
        return 0.5 * problems.row_dot(pb.eigs * X, X)
    if isinstance(pb, problems.Rosenbrock):
        a, b = X[:, 0], X[:, 1]
        return (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
    data, y, reg = pb.data, pb.y, pb.reg
    out = np.empty(len(X))
    for s, x in enumerate(X):
        z = y * (data @ x)
        out[s] = float(np.logaddexp(0.0, -z).mean()) + float(reg * np.sum(x * x / (1.0 + x * x)))
    return out


def reference_gradient_rows(pb, X):
    if isinstance(pb, problems.Quadratic):
        return pb.eigs * X
    if isinstance(pb, problems.Rosenbrock):
        a, b = X[:, 0], X[:, 1]
        return np.stack([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)], axis=1)
    data, y, reg = pb.data, pb.y, pb.reg
    out = np.empty_like(X)
    for s, x in enumerate(X):
        z = y * (data @ x)
        out[s] = data.T @ (-y * masked_expit(-z)) / len(y)
    return out + reg * 2.0 * X / (1.0 + X * X) ** 2


def _oracle_cases():
    rng = np.random.default_rng(21)
    quad = problems.make_quadratic(dim=7, cond=100.0, sigma=0.1)
    rosen = problems.make_rosenbrock(sigma=0.1)
    logreg = problems.make_logreg_nonconvex(n=203, d=5, reg=0.05, seed=4)
    # Logreg rows from tiny to huge: the last rows give margins far
    # beyond +-700, where exp over- and underflows.
    scales = np.array([1e-3, 0.3, 1.0, 30.0, 400.0])[:, None]
    return [
        (quad, 3.0 * rng.standard_normal((5, 7))),
        (rosen, 2.5 * rng.standard_normal((5, 2))),
        (logreg, scales * rng.standard_normal((5, 5))),
    ]


@pytest.mark.parametrize("case", range(3), ids=["quadratic", "rosenbrock", "logreg"])
def test_value_and_gradient_rows_bitwise_equals_separate_oracles(case):
    pb, X = _oracle_cases()[case]
    f, G = pb.value_and_gradient(X)
    assert f.shape == (5,) and G.shape == (5, pb.dim)
    np.testing.assert_array_equal(f, reference_loss_rows(pb, X))
    np.testing.assert_array_equal(G, reference_gradient_rows(pb, X))
    if not isinstance(pb, problems.LogReg):
        np.testing.assert_array_equal(pb.gradient(X), G)
    else:
        z = pb.y * (pb.data @ X[-1])
        assert np.abs(z).max() > 700.0
        assert (z > 700.0).any() and (z < -700.0).any()
    for i, x in enumerate(X):
        fi, Gi = pb.value_and_gradient(X[i:i + 1])
        assert fi[0] == f[i]
        np.testing.assert_array_equal(Gi[0], G[i])
        assert problems.loss(pb, x) == f[i]
        np.testing.assert_array_equal(problems.full_gradient(pb, x), G[i])


def test_expit_bitwise_equals_masked_reference():
    edges = np.array([0.0, -0.0, 1e-300, -1e-300, 37.0, -37.0, 700.0, -700.0,
                      800.0, -800.0, np.inf, -np.inf])
    got = problems._expit(edges)
    np.testing.assert_array_equal(got, masked_expit(edges))
    assert (got[:4] == 0.5).all() and got[-2] == 1.0 and got[-1] == 0.0
    with_nan = np.array([np.nan, 1.0])
    assert np.isnan(problems._expit(with_nan)[0])
    np.testing.assert_array_equal(problems._expit(with_nan), masked_expit(with_nan))
    rng = np.random.default_rng(5)
    for _ in range(100):
        t = rng.standard_normal(int(rng.integers(1, 300))) * 10.0 ** rng.uniform(-3, 3)
        np.testing.assert_array_equal(problems._expit(t), masked_expit(t))
