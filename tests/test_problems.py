import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
    pb = problems.make_quadratic(dim=2, cond=10.0, sigma=0.5)
    assert pb.L == 10.0
    assert pb.A == 0.0 and pb.B == 1.0
    assert pb.C == pytest.approx(0.5**2 * 2, abs=0)
    assert pb.f_star == 0.0 and pb.f_lower == 0.0
    assert pb.domain_box is None
    np.testing.assert_allclose(pb.eigs, [1.0, 10.0])


def test_quadratic_params_are_its_shape_and_noise_only():
    # A quadratic's build draws nothing, so it takes no seed, and its params
    # (and so its config digest) hold only what changes the problem.
    assert problems.make_quadratic(dim=2, cond=10.0, sigma=0.5).params == {"dim": 2, "cond": 10.0, "sigma": 0.5}
    with pytest.raises(TypeError, match="seed"):
        problems.make_quadratic(dim=2, cond=10.0, sigma=0.5, seed=0)


def test_quadratic_dim1_uses_cond_as_eigenvalue():
    pb = problems.make_quadratic(dim=1, cond=7.0, sigma=0.0)
    np.testing.assert_allclose(pb.eigs, [7.0])
    assert pb.L == 7.0


@pytest.mark.parametrize("cond", [100.0, 5.0, 20.0, 12.5, 300.0])
def test_quadratic_eigs_logspaced(cond):
    # 10 ** linspace(0, log10(cond)) overshot cond for 5, 20, 12.5 and 300,
    # so L = cond did not bound the spectrum.
    pb = problems.make_quadratic(dim=4, cond=cond, sigma=0.0)
    eigs = pb.eigs
    assert eigs[0] == 1.0 and eigs[-1] == cond == pb.L
    assert (np.diff(eigs) >= 0).all()
    ratios = eigs[1:] / eigs[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)


def test_quadratic_loss_and_gradient():
    pb = problems.make_quadratic(dim=2, cond=10.0, sigma=0.0)
    x = np.array([2.0, -1.0])
    # f = (1*4 + 10*1)/2
    assert problems.loss(pb, x) == pytest.approx(7.0, abs=0)
    np.testing.assert_allclose(problems.full_gradient(pb, x), [2.0, -10.0])
    np.testing.assert_allclose(problems.full_gradient(pb, x), fd_gradient(pb, x), atol=1e-6)


def test_quadratic_oracles_on_stacks_of_changing_height():
    # The quadratic multiplies by its eigenvalues tiled to the last
    # stack's shape; each call must give the broadcast product's bits
    # whatever height came before, an eval stack between steps included.
    pb = problems.make_quadratic(dim=6, cond=20.0, sigma=0.3)
    rng = np.random.default_rng(4)
    for height, kind in [(5, "step"), (2, "step"), (11, "eval"), (5, "step"), (1, "step"), (1, "eval"), (5, "eval")]:
        X = rng.standard_normal((height, pb.dim)) * 10.0 ** rng.integers(-3, 4, size=(height, 1))
        want = pb.eigs * X
        if kind == "step":
            draws = pb.draw_block(rng, height)
            assert pb.step_gradient(X, draws).tobytes() == (want + draws).tobytes()
        else:
            f, G = pb.value_and_gradient(X)
            assert G.tobytes() == want.tobytes()
            assert f.tobytes() == np.array([0.5 * np.dot(g, x) for g, x in zip(want, X)]).tobytes()


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


@pytest.mark.parametrize("n, d", [(40, 5), (2 * 2621 + 17, 50), (3 * 436 + 5, 300)])
def test_logreg_constants(n, d):
    # L and C bit for bit as formed on the whole data at once.  The build
    # takes the row norms over the eval's chunks of rows (2621 at d = 50,
    # 436 at d = 300), and these n leave a short last chunk.
    reg = 0.1
    pb = problems.make_logreg_nonconvex(n=n, d=d, reg=reg, seed=0)
    X = pb.data
    L = float(np.linalg.eigvalsh(X.T @ X).max()) / (4.0 * n) + 2.0 * reg
    row_sq = float((X * X).sum(axis=1).max())
    C = 2.0 * row_sq + 2.0 * (reg * np.sqrt(d) * (9.0 / (8.0 * np.sqrt(3.0)))) ** 2
    assert pb.L.hex() == L.hex()
    assert pb.C.hex() == float(C).hex()
    assert pb.f_star is None
    assert pb.f_lower == 0.0
    assert set(np.unique(pb.y)) <= {-1.0, 1.0}


def test_logreg_retries_a_degenerate_label_draw(caplog):
    # Seeds 0 and 1 draw two rows with one label class each; seed 2 draws both.
    with caplog.at_level("WARNING", logger="slrlab.problems"):
        pb = problems.make_logreg_nonconvex(n=2, d=1, reg=0.0, seed=0)
    assert [r.getMessage() for r in caplog.records] == [
        "logreg data degenerate for seed 0; retrying with seed 1",
        "logreg data degenerate for seed 1; retrying with seed 2",
    ]
    want = problems.make_logreg_nonconvex(n=2, d=1, reg=0.0, seed=2)
    assert pb.signed.tobytes() == want.signed.tobytes() and pb.y.tobytes() == want.y.tobytes()
    assert set(pb.y) == {-1.0, 1.0}
    assert pb.params["seed"] == 0


def test_logreg_build_holds_one_full_size_array():
    # The data are the one full-size array: the squared row norms for C,
    # formed as X * X, would be a second (a traced peak of ~2.1x).
    tracemalloc.start()
    try:
        pb = problems.make_logreg_nonconvex(n=20000, d=50, reg=0.01, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * pb.signed.nbytes


@pytest.mark.parametrize("pb", [
    problems.make_quadratic(dim=3, cond=10.0, sigma=0.2),
    problems.make_rosenbrock(sigma=0.1),
    problems.make_logreg_nonconvex(n=40, d=5, reg=0.1, seed=0),
], ids=["quadratic", "rosenbrock", "logreg"])
def test_certified_constants_are_python_floats(pb):
    # np.float64 subclasses float, so the test is on the exact type.
    assert [type(v) for v in (pb.L, pb.A, pb.B, pb.C)] == [float] * 4


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


# Reference oracles, one row at a time, and the masked logistic that
# _expit replaced; the vectorised forms must reproduce them bit for bit.
# The logreg reference evaluates each row alone, in slot 0 of a zero
# (d, 16) block, over the eval's fixed data chunks and tiles.
def masked_expit(t):
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


def logreg_chunks(pb):
    rows = max(1, problems._EVAL_CHUNK_VALUES // pb.dim)
    return [slice(c0, c0 + rows) for c0 in range(0, len(pb.y), rows)]


def reference_logreg_rows(pb, X):
    data, y, reg, d = pb.data, pb.y, pb.reg, pb.dim
    tc = min(d, 128)
    tr = 2**14 // tc
    f, G = np.empty(len(X)), np.empty_like(X)
    for s, x in enumerate(X):
        W = np.zeros((d, 16))
        W[:, 0] = x
        total, grad = 0.0, np.zeros(d)
        for c in logreg_chunks(pb):
            A = data[c]
            margins = np.zeros((len(A), 16))
            for i in range(0, len(A), tr):
                for j in range(0, d, tc):
                    margins[i:i + tr] += A[i:i + tr, j:j + tc] @ W[j:j + tc]
            z = y[c] * margins[:, 0]
            # log(1 + exp(-z)), split so that exp cannot overflow
            total += np.sum(np.maximum(-z, 0.0) + np.log1p(np.exp(-np.abs(z))))
            Q = np.zeros((len(A), 16))
            Q[:, 0] = -y[c] * masked_expit(-z)
            acc = np.zeros((d, 16))
            for j in range(0, d, tc):
                for i in range(0, len(A), tr):
                    acc[j:j + tc] += A[i:i + tr, j:j + tc].T @ Q[i:i + tr]
            grad += acc[:, 0]
        f[s] = total / len(y) + reg * np.sum(x * x / (1.0 + x * x))
        G[s] = grad
    return f, G / len(y) + reg * 2.0 * X / (1.0 + X * X) ** 2


def reference_loss_rows(pb, X):
    if isinstance(pb, problems.Quadratic):
        return 0.5 * problems.row_dot(pb.eigs * X, X)
    if isinstance(pb, problems.Rosenbrock):
        a, b = X[:, 0], X[:, 1]
        return (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
    return reference_logreg_rows(pb, X)[0]


def reference_gradient_rows(pb, X):
    if isinstance(pb, problems.Quadratic):
        return pb.eigs * X
    if isinstance(pb, problems.Rosenbrock):
        a, b = X[:, 0], X[:, 1]
        return np.stack([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)], axis=1)
    return reference_logreg_rows(pb, X)[1]


def _oracle_cases():
    rng = np.random.default_rng(21)
    quad = problems.make_quadratic(dim=7, cond=100.0, sigma=0.1)
    rosen = problems.make_rosenbrock(sigma=0.1)
    logreg = problems.make_logreg_nonconvex(n=203, d=5, reg=0.05, seed=4)
    # Two full data chunks and a ragged one of 3 rows; 19 eval rows span
    # two row groups.
    chunk = problems._EVAL_CHUNK_VALUES // 50
    ragged = problems.make_logreg_nonconvex(n=2 * chunk + 3, d=50, reg=0.05, seed=6)
    # d = 300 reads column tiles of 128, 128 and 44: two full chunks of
    # 436 rows and a ragged one of 5.
    wide = problems.make_logreg_nonconvex(n=2 * (problems._EVAL_CHUNK_VALUES // 300) + 5, d=300, reg=0.05, seed=8)
    # Logreg rows from tiny to huge: the last rows give margins far
    # beyond +-700, where exp over- and underflows.
    scales = np.array([1e-3, 0.3, 1.0, 30.0, 400.0])[:, None]
    # More rows than one batch of groups holds, on the ragged data: a full
    # batch and a second one whose last group has 5 rows.
    many = 16 * logreg_batch(ragged) + 5
    return [
        (quad, 3.0 * rng.standard_normal((5, 7))),
        (rosen, 2.5 * rng.standard_normal((5, 2))),
        (logreg, scales * rng.standard_normal((5, 5))),
        (ragged, np.repeat(scales, 4, axis=0)[1:] * rng.standard_normal((19, 50))),
        (wide, scales * rng.standard_normal((5, 300))),
        (ragged, np.resize(scales[::-1], (many, 1))[::-1] * rng.standard_normal((many, 50))),
    ]


def logreg_batch(pb):
    """The most groups of 16 eval rows that one batch of ``pb``'s eval serves."""
    return problems._eval_tiling(len(pb.y), pb.dim)[3]


@pytest.mark.parametrize("case", range(6), ids=["quadratic", "rosenbrock", "logreg", "logreg-chunks", "logreg-wide",
                                                "logreg-batches"])
def test_value_and_gradient_rows_bitwise_equals_separate_oracles(case):
    pb, X = _oracle_cases()[case]
    f, G = pb.value_and_gradient(X)
    assert f.shape == (len(X),) and G.shape == X.shape
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


def test_logreg_loss_close_to_logaddexp_mean():
    # The chunked loss changes how the terms are formed and summed, not
    # what they are: it stays within a few ulp of the mean of
    # np.logaddexp(0, -z) over the whole data.
    pb, X = _oracle_cases()[3]
    f = pb.value_and_gradient(X)[0]
    for x, fx in zip(X, f):
        z = pb.y * (pb.data @ x)
        old = float(np.logaddexp(0.0, -z).mean()) + float(pb.reg * np.sum(x * x / (1.0 + x * x)))
        assert abs(fx - old) <= 1e-14 * abs(old)


# Evaluates logreg on a tall and a wide data matrix, at a stack of points
# that spans two batches of groups, and writes the raw bytes of f and G to
# stdout.
_PROBE_SHAPES = ((20000, 50), (5000, 500))
_BLAS_THREADS_PROBE = f"""
import sys
import numpy as np
from slrlab import problems
for n, d in {_PROBE_SHAPES!r}:
    pb = problems.make_logreg_nonconvex(n, d, 0.01, seed=1)
    S = 16 * problems._eval_tiling(n, d)[3] + 3
    X = np.random.default_rng(2).standard_normal((S, d)) * np.resize([0.05, 0.3, 2.0], (S, 1))
    f, G = pb.value_and_gradient(X)
    sys.stdout.buffer.write(f.tobytes() + G.tobytes())
"""


def _probe_bytes():
    # The probe's output length: f and G at 16 * B + 3 rows per matrix.
    return sum(8 * (16 * problems._eval_tiling(n, d)[3] + 3) * (1 + d) for n, d in _PROBE_SHAPES)


def test_logreg_eval_bits_do_not_depend_on_blas_threads():
    # A product over the whole data matrix is split across BLAS threads
    # and sums in another order with each thread count.
    src = str(Path(problems.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", _BLAS_THREADS_PROBE], env=env,
                              capture_output=True, check=True, timeout=120)
        outs.append(proc.stdout)
    assert len(outs[0]) == _probe_bytes()
    assert outs[1] == outs[0], "2 BLAS threads give other bits than 1"
    assert outs[2] == outs[0], "4 BLAS threads give other bits than 1"


@pytest.mark.parametrize("case", [3, 4], ids=["logreg-chunks", "logreg-wide"])
def test_logreg_row_bits_do_not_depend_on_slot_or_neighbours(case):
    # Each row sits in every slot of stacks of 1, 16 and 17 rows (the last
    # group of 17 has one row), among random neighbours, on data of two
    # full chunks and a ragged one.  A stack of 16 * B rows fills one batch
    # of B groups, and one more row starts a second batch; there the row
    # sits in the first, a middle and the last slot of every group.
    pb, X = _oracle_cases()[case]
    B = logreg_batch(pb)
    assert B > 1
    rng = np.random.default_rng(9)
    for x in X[[0, len(X) // 2, -1]]:
        f1, G1 = pb.value_and_gradient(x[None])
        for height in (1, 16, 17, 16 * B, 16 * B + 1):
            slots = range(height) if height <= 17 else [s for g in range(0, height, 16)
                                                        for s in (g, g + 7, g + 15) if s < height]
            for slot in slots:
                S = rng.standard_normal((height, pb.dim)) * 10.0 ** rng.uniform(-3, 2, size=(height, 1))
                S[slot] = x
                f, G = pb.value_and_gradient(S)
                assert f[slot].tobytes() == f1[0].tobytes(), (height, slot)
                assert G[slot].tobytes() == G1[0].tobytes(), (height, slot)


# OpenBLAS kernels and the CPU features each needs: forcing a kernel the
# CPU cannot run would stop the probe on an illegal instruction.
_OPENBLAS_KERNELS = {
    "Sandybridge": ("AVX",),
    "Haswell": ("AVX2", "FMA3"),
    "SkylakeX": ("AVX512F", "AVX512CD", "AVX512BW", "AVX512DQ", "AVX512VL"),
}


@pytest.mark.parametrize("kernel", sorted(_OPENBLAS_KERNELS))
def test_logreg_eval_bits_do_not_depend_on_blas_threads_per_kernel(kernel):
    # Each OpenBLAS kernel splits a large product across threads in its
    # own way; the fixed tiles keep every product small enough that none
    # of them does.  Bits differ between kernels, not between thread counts.
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__ as features
    if not all(features.get(name) for name in _OPENBLAS_KERNELS[kernel]):
        pytest.skip(f"this CPU cannot run the {kernel} kernel")
    src = str(Path(problems.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", _BLAS_THREADS_PROBE], env=env,
                              capture_output=True, check=True, timeout=120)
        outs.append(proc.stdout)
    assert len(outs[0]) == _probe_bytes()
    assert outs[1] == outs[0], f"{kernel}: 2 BLAS threads give other bits than 1"


def test_logreg_step_gradient_bitwise_equals_textbook_row():
    # The summand gradient -y_i * expit(-y_i * (x_i . w)) * x_i plus the
    # penalty's, from the unsigned rows, one row and one masked logistic at
    # a time; the rows repeat indices and reach margins beyond +-700.  At
    # d = 20 a dot product in another order gives other bits.
    pb = problems.make_logreg_nonconvex(n=40, d=20, reg=0.05, seed=4)
    rng = np.random.default_rng(13)
    scales = np.array([1e-3, 0.3, 1.0, 30.0, 400.0, 400.0])
    X = np.repeat(scales, 3)[:, None] * rng.standard_normal((18, 20))
    draws = np.tile(rng.integers(len(pb.y), size=6), 3)
    got = pb.step_gradient(X, draws)
    data, y = pb.data, pb.y
    margins = np.array([np.dot(data[i], w) for w, i in zip(X, draws)])
    assert (margins > 700.0).any() and (margins < -700.0).any()
    for s, (w, i) in enumerate(zip(X, draws)):
        want = -y[i] * masked_expit(np.array([-y[i] * margins[s]]))[0] * data[i] + pb.reg * 2.0 * w / (1.0 + w * w) ** 2
        assert got[s].tobytes() == want.tobytes(), s


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
