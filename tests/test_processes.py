"""Disturbance-model checks.

Autocovariances and prediction-error variances are verified against hand
oracles (Yule-Walker solved by fraction arithmetic, noted inline) and
against long simulated paths; the stationary start is checked by comparing
the distribution of the very first sample with the analytic marginal.
"""

import hashlib
import math
from functools import reduce
from operator import add, mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrolim import (
    IID,
    CapacityError,
    GaussARMA,
    GaussianVector,
    GenGaussAR,
    GeneralizedGaussian,
    NotAnalyticError,
    VectorGaussAR,
    arma_autocovariance,
    entropy_schedule,
    levinson_ladder,
    model_from_config,
    prediction_variances,
    predictor_controller,
)
from entrolim import bounds, processes, verify

TWO_PI_E = 2.0 * math.pi * math.e


# ---------------------------------------------------------------------------
# autocovariance solver


def test_ar1_autocovariance():
    # R(j) = sigma^2 a^j / (1 - a^2)
    r = arma_autocovariance((0.8,), (), 1.0, 4)
    base = 1.0 / (1.0 - 0.64)
    assert np.allclose(r, base * 0.8 ** np.arange(5), rtol=1e-12)


def test_ma1_autocovariance():
    r = arma_autocovariance((), (0.4,), 2.0, 3)
    assert r[0] == pytest.approx(2.0 * (1 + 0.16), rel=1e-12)
    assert r[1] == pytest.approx(2.0 * 0.4, rel=1e-12)
    assert r[2] == 0.0
    assert r[3] == 0.0


def test_arma11_autocovariance():
    # R(0) = s2 (1 + 2 phi th + th^2)/(1 - phi^2),
    # R(1) = s2 (1 + phi th)(phi + th)/(1 - phi^2), R(j) = phi R(j-1)
    r = arma_autocovariance((0.5,), (0.3,), 2.0, 3)
    assert r[0] == pytest.approx(3.706666666666667, rel=1e-12)
    assert r[1] == pytest.approx(2.453333333333333, rel=1e-12)
    assert r[2] == pytest.approx(1.2266666666666666, rel=1e-12)
    assert r[3] == pytest.approx(0.6133333333333333, rel=1e-12)


def test_ar2_autocovariance_fractions():
    # Yule-Walker for ar=(0.5, 0.3), s2=1 gives R0=175/78, R1=125/78, R2=115/78
    r = arma_autocovariance((0.5, 0.3), (), 1.0, 2)
    assert r[0] == pytest.approx(175.0 / 78.0, rel=1e-12)
    assert r[1] == pytest.approx(125.0 / 78.0, rel=1e-12)
    assert r[2] == pytest.approx(115.0 / 78.0, rel=1e-12)


def test_iid_autocovariance():
    r = arma_autocovariance((), (), 1.7, 2)
    assert r[0] == pytest.approx(1.7)
    assert r[1] == 0.0


# IID variances as float.hex, frozen: IID reads its second-order laws as
# ARMA(0, 0), which must return the innovation variance to the last bit
IID_VARIANCE_HEX = {
    (math.inf, 0.5): "0x1.5555555555555p-4",
    (1.0, 0.7): "0x1.f5c28f5c28f5bp-1",
    (2.0, 1.3): "0x1.b0a3d70a3d70dp+0",
    (3.0, 1.1): "0x1.e108093f7c674p-1",
}


@pytest.mark.parametrize("p, mu", list(IID_VARIANCE_HEX))
def test_iid_second_order_frozen(p, mu):
    model = IID(GeneralizedGaussian(p, mu))
    var = float.fromhex(IID_VARIANCE_HEX[p, mu])
    assert model.variance() == var
    assert model.autocovariance(3).tolist() == [var, 0.0, 0.0, 0.0]
    spectrum = model.power_spectrum()
    assert spectrum(np.array([0.0, 1.0, -2.5])).tolist() == [var] * 3
    assert float(spectrum(0.3)) == var
    assert model.effective_memory() == 0


def test_scalar_models_expose_innovation_variance():
    gg = GeneralizedGaussian(1.0, 0.7)
    assert IID(gg).innovation_variance == gg.variance()
    assert GenGaussAR(ar=(0.5,), innovation=gg).innovation_variance == gg.variance()
    assert GaussARMA(ar=(0.5,), innovation_variance=2.5).innovation_variance == 2.5


def test_autocovariance_matches_simulation():
    model = GaussARMA(ar=(0.5,), ma=(0.3,), innovation_variance=2.0)
    path = model.sample_path(400_000, seed=31)
    want = model.autocovariance(2)
    for lag in range(3):
        emp = float(np.mean(path[lag:] * path[: path.size - lag]))
        assert emp == pytest.approx(want[lag], rel=0.02)


# ---------------------------------------------------------------------------
# Levinson-Durbin


def test_levinson_recovers_ar_taps():
    r = arma_autocovariance((0.5, 0.3), (), 1.0, 2)
    coeffs, variances = levinson_ladder(r, 2)
    assert np.allclose(coeffs[2], [0.5, 0.3], rtol=1e-12)
    assert variances[2] == pytest.approx(1.0, rel=1e-12)


def test_levinson_ladder_variances():
    # hand recursion: P0 = 175/78, P1 = P0 (1 - (5/7)^2) = 100/91, P2 = 1
    r = arma_autocovariance((0.5, 0.3), (), 1.0, 2)
    ladder, variances = levinson_ladder(r, 2)
    assert variances[0] == pytest.approx(175.0 / 78.0, rel=1e-12)
    assert variances[1] == pytest.approx(100.0 / 91.0, rel=1e-12)
    assert variances[2] == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(ladder[1], [125.0 / 175.0])
    assert np.allclose(ladder[2], [0.5, 0.3], rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(a=st.floats(min_value=-0.95, max_value=0.95))
def test_prediction_error_never_increases(a):
    r = arma_autocovariance((a,), (0.2,), 1.0, 8)
    _, variances = levinson_ladder(r, 8)
    assert np.all(np.diff(variances) <= 1e-12)
    assert variances[-1] >= 1.0 - 1e-9  # innovation variance is the floor


# ---------------------------------------------------------------------------
# GaussARMA


def test_entropy_schedule_ar2():
    model = GaussARMA(ar=(0.5, 0.3))
    sched = entropy_schedule(model, 5)
    # h_k = 0.5 log2(2 pi e P_k) with P = [175/78, 100/91, 1, 1, 1]
    assert sched.h_bits[0] == pytest.approx(2.630000031665681, abs=1e-12)
    assert sched.h_bits[1] == pytest.approx(2.1151263599686554, abs=1e-12)
    assert np.allclose(sched.h_bits[2:], 2.047095585180641, atol=1e-12)
    assert sched.entropy_rate_bits == pytest.approx(2.047095585180641, abs=1e-12)
    assert np.all(np.diff(sched.h_bits) <= 1e-12)


def _random_stable_arma(seed):
    # sum |a_i| < 1 keeps every AR and MA root outside the unit circle
    rng = np.random.default_rng(seed)
    p, q = rng.integers(1, 4), rng.integers(0, 3)
    ar = rng.uniform(-0.95, 0.95, p) / p
    ma = rng.uniform(-0.95, 0.95, q) / max(q, 1)
    return GaussARMA(ar=tuple(ar), ma=tuple(ma), innovation_variance=rng.uniform(0.5, 2.0))


LADDER_MODELS = [
    GaussARMA(ar=(0.9,)),
    GaussARMA(ar=(0.5, 0.3), ma=(0.4,)),
    GaussARMA(ma=(0.99,)),
    *[_random_stable_arma(seed) for seed in range(4)],
]


@pytest.mark.parametrize("model", LADDER_MODELS, ids=lambda m: m.descriptor)
def test_entropy_schedule_matches_per_step_ladder(model):
    # P_k read from the shared power-of-two ladder is the very float an
    # order-k ladder of its own gives
    steps = [0, 1, 2, 3, 4, 5, 8, 9, 64, 65, 128, 129, 256, 257, 512, 513, 599]
    h = entropy_schedule(model, 600).h_bits
    want = [
        0.5 * math.log2(TWO_PI_E * levinson_ladder(model.autocovariance(k), k)[1][k])
        for k in steps
    ]
    assert np.array_equal(h[steps], want)


def test_entropy_schedule_runs_one_ladder_per_power_of_two(monkeypatch):
    orders = []
    ladder = processes.levinson_ladder

    def counted(acov, order):
        orders.append(order)
        return ladder(acov, order)

    monkeypatch.setattr(processes, "levinson_ladder", counted)
    processes._ladder_variances.cache_clear()
    model = GaussARMA(ar=(0.7, -0.2), ma=(0.3,))
    entropy_schedule(model, 1024)
    assert len(orders) <= 11
    orders.clear()
    entropy_schedule(model, 1024)
    assert orders == []
    assert math.isfinite(model.conditional_entropy_bits(4096))


def test_prediction_variances_power_of_two_and_read_only():
    model = GaussARMA(ar=(0.5, 0.3))
    assert prediction_variances(model, 0).size == 2
    assert prediction_variances(model, 5).size == 9
    assert prediction_variances(model, 8).size == 9
    with pytest.raises(ValueError):
        prediction_variances(model, 5)[2] = 0.0
    with pytest.raises(ValueError):
        prediction_variances(model, -1)


def test_conditional_entropy_k0_is_marginal():
    model = GaussARMA(ar=(0.9,))
    var0 = 1.0 / (1.0 - 0.81)
    assert model.conditional_entropy_bits(0) == pytest.approx(
        0.5 * math.log2(TWO_PI_E * var0), abs=1e-12
    )


def test_stationary_start():
    # the first emitted sample must already follow the stationary marginal
    model = GaussARMA(ar=(0.9,), innovation_variance=1.0)
    first = np.array([model.sample_path(1, seed=s)[0] for s in range(4000)])
    var0 = 1.0 / (1.0 - 0.81)
    se = var0 * math.sqrt(2.0 / 4000)
    assert abs(np.var(first) - var0) < 4 * se
    assert abs(np.mean(first)) < 4 * math.sqrt(var0 / 4000)


def test_stationary_start_arma11():
    model = GaussARMA(ar=(0.5,), ma=(0.3,), innovation_variance=2.0)
    first = np.array([model.sample_path(1, seed=s)[0] for s in range(4000)])
    var0 = 3.706666666666667
    se = var0 * math.sqrt(2.0 / 4000)
    assert abs(np.var(first) - var0) < 4 * se


def test_sample_path_reproducible():
    model = GaussARMA(ar=(0.4, 0.2), ma=(0.1,))
    assert np.array_equal(model.sample_path(64, 3), model.sample_path(64, 3))


def _lfilter(b, a, x, zi):
    from scipy import signal  # the package itself no longer imports it

    return signal.lfilter(b, a, x, zi=zi)[0]


# The paths run in blocks of matrix products (processes._run_blocks), which sum
# in another order than the per-sample recursions they replaced: each path is
# its reference within 1e-12 of the reference's largest magnitude, on any BLAS
# (near-integrating filters excepted; their limit is pinned separately).
PATH_RTOL = 1e-12

# across the block width of 64 numbers (16 samples of a 4-vector) and the
# 63-block products (4032 numbers)
PATH_LENGTHS = (1, 15, 16, 17, 63, 64, 65, 1000, 4033, 20_000)


def _assert_path_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= PATH_RTOL * np.max(np.abs(want))


def _poly_with_roots_inside(rng, order, radius):
    """c_1..c_order of prod_i (1 - r_i z): the largest |r_i| is ``radius``,
    the others at most that, real or in conjugate pairs."""
    roots = []
    while len(roots) < order:
        mod = radius if not roots else radius * rng.uniform(0.2, 1.0)
        if order - len(roots) >= 2 and rng.random() < 0.5:
            angle = rng.uniform(0.1, 3.0)
            roots += [mod * np.exp(1j * angle), mod * np.exp(-1j * angle)]
        else:
            roots.append(mod * rng.choice([-1.0, 1.0]))
    return np.poly(roots).real[1:] if order else np.zeros(0)


@pytest.mark.parametrize("p, q", [(p, q) for p in range(5) for q in range(5) if p or q])
def test_block_paths_are_lfilter_paths_within_tolerance(p, q):
    # the block evaluator on the DF2T realisation against lfilter's per-sample
    # DF2T update, from a stationary state (GaussARMA's call) and from zeros
    # (GenGaussAR's, when q = 0), with poles and zeros of modulus up to 0.999
    rng = np.random.default_rng(10 * p + q)
    n = max(p, q)
    for radius in (0.3, 0.9, 0.99, 0.999):
        ar = -_poly_with_roots_inside(rng, p, radius)
        ma = _poly_with_roots_inside(rng, q, radius)
        model = GaussARMA(ar=tuple(ar), ma=tuple(ma), innovation_variance=rng.uniform(0.5, 2.0))
        b, a = np.concatenate(([1.0], ma)), processes._ar_poly(model.ar)
        stationary = processes._state_factor(model) @ rng.standard_normal(n)
        for length in PATH_LENGTHS:
            x = rng.normal(0.0, math.sqrt(model.innovation_variance), length)
            for zi in (stationary, np.zeros(n)):
                got = processes._run_blocks(processes._path_blocks(model), x, zi)
                _assert_path_close(got, _lfilter(b, a, x, zi))


def test_block_paths_of_a_near_integrating_filter_lose_accuracy_with_its_gain():
    # a block maps a state over 64 samples at once, so rounding grows with the
    # transient of F^64: with AR poles 0.995 and 0.96 e^(+-0.1 i) (DC gain
    # 2.1e4) the blocks were 7.2e-12 of max|path| from a long-double DF2T
    # reference and lfilter 3.9e-13; pinned here at 1e-10 against lfilter
    ar = -np.poly([0.995, 0.96 * np.exp(0.1j), 0.96 * np.exp(-0.1j)]).real[1:]
    ma = np.poly([-0.995 * np.exp(2j), -0.995 * np.exp(-2j)]).real[1:]
    model = GaussARMA(ar=tuple(ar), ma=tuple(ma))
    rng = np.random.default_rng(0)
    zi = processes._state_factor(model) @ rng.standard_normal(3)
    x = rng.standard_normal(20_000)
    got = processes._run_blocks(processes._path_blocks(model), x, zi)
    want = _lfilter(np.concatenate(([1.0], ma)), processes._ar_poly(model.ar), x, zi)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_block_products_stay_under_the_blas_thread_thresholds(monkeypatch):
    # OpenBLAS threads a gemm from M N K = 2**18 and a gemv from m n = 9216;
    # every np.matmul of a path stays below both, on long paths and partial
    # blocks (each state step is one more gemv, of n x 2n)
    sizes = []
    matmul = np.matmul

    def recording_matmul(a, b, *args, **kwargs):
        sizes.append(a.shape + b.shape[1:])
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording_matmul)
    for model in (
        GaussARMA(ar=(0.9,)),
        GaussARMA(ar=(0.3, -0.2, 0.1), ma=(0.4, 0.2, 0.1, 0.05)),
        GenGaussAR(ar=(0.6, -0.2), innovation=GeneralizedGaussian.laplace(0.5)),
        _random_vector_model(3),
        _random_vector_model(4),
    ):
        for length in (5, 20_017):
            model.sample_path(length, 0)
    assert len({size for size in sizes if len(size) == 3}) > 1
    for size in sizes:
        assert math.prod(size) < (2**18 if len(size) == 3 else 9216), size


def test_path_blocks_are_built_on_first_sample_cached_and_read_only():
    before = processes._path_blocks.cache_info()
    model = GaussARMA(ar=(0.41, 0.2), ma=(0.35,))
    assert processes._path_blocks.cache_info() == before
    model.sample_path(10, 0)
    assert processes._path_blocks.cache_info().misses == before.misses + 1
    model.sample_path(10, 1)
    assert processes._path_blocks.cache_info().misses == before.misses + 1
    blocks = processes._path_blocks(model)
    assert blocks is processes._path_blocks(model)
    assert not any(block.flags.writeable for block in blocks)


@pytest.mark.parametrize(
    "model",
    [
        GaussARMA(ar=(0.9,)),
        GaussARMA(ar=(0.999,)),
        GaussARMA(ar=(0.5, 0.3), ma=(0.4,)),
        GaussARMA(ma=(0.6, -0.2)),
        GaussARMA(ar=(0.3, -0.2, 0.1), ma=(0.4, 0.2, 0.1, 0.05)),
        GenGaussAR(ar=(0.6, -0.2), innovation=GeneralizedGaussian.laplace(0.5)),
        GenGaussAR(ar=(1.9, -0.95), innovation=GeneralizedGaussian(power=4.0, scale=1.0)),
    ],
    ids=lambda m: m.descriptor,
)
def test_arma_sample_paths_are_lfilter_paths(model):
    # the draw order: GaussARMA's stationary state, then its innovations;
    # GenGaussAR's innovations from a zero state, burn-in dropped
    b = np.concatenate(([1.0], model.ma))
    a = processes._ar_poly(model.ar)
    for seed, length in enumerate(PATH_LENGTHS):
        rng = np.random.default_rng(seed)
        if isinstance(model, GaussARMA):
            zi = processes._state_factor(model) @ rng.standard_normal(max(len(model.ar), len(b) - 1))
            w = rng.normal(0.0, math.sqrt(model.innovation_variance), length)
            want = _lfilter(b, a, w, zi)
        else:
            burn = 10 * model.effective_memory()
            w = model.innovation.sample(length + burn, rng)
            want = _lfilter(b, a, w, np.zeros(len(model.ar)))[burn:]
        _assert_path_close(model.sample_path(length, seed), want)


def test_rejects_unstable_and_noninvertible():
    with pytest.raises(ValueError, match="AR"):
        GaussARMA(ar=(1.05,))
    with pytest.raises(ValueError, match="MA"):
        GaussARMA(ma=(1.2,))
    with pytest.raises(ValueError, match="AR"):
        GaussARMA(ar=(0.5, 0.5))  # root on the unit circle
    with pytest.raises(ValueError, match="variance"):
        GaussARMA(innovation_variance=0.0)


_EYE2 = ((1.0, 0.0), (0.0, 1.0))


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: GaussARMA(ar=(math.nan,)), "ar"),
        (lambda: GaussARMA(ma=(-math.inf,)), "ma"),
        (lambda: GaussARMA(innovation_variance=math.inf), "innovation_variance"),
        (lambda: GaussARMA(innovation_variance=math.nan), "innovation_variance"),
        (lambda: GenGaussAR(ar=(math.nan,), innovation=GeneralizedGaussian(2.0, 1.0)), "ar"),
        (
            lambda: VectorGaussAR(transition=((0.5, math.nan), (0.0, 0.3)), innovation_covariance=_EYE2),
            "transition",
        ),
        (
            lambda: VectorGaussAR(transition=_EYE2, innovation_covariance=((math.inf, 0.0), (0.0, 1.0))),
            "innovation_covariance",
        ),
    ],
)
def test_constructors_refuse_non_finite_parameters(build, name):
    # the config path refuses these in spec_number; Python callers get the same guard
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        build()


def test_capacity_error_past_horizon():
    model = GaussARMA(ar=(0.9,))
    with pytest.raises(CapacityError):
        model.conditional_entropy_bits(4097)
    with pytest.raises(CapacityError):
        model.conditional_entropy_bits(50_000)


# ---------------------------------------------------------------------------
# GenGaussAR


def test_gengauss_ar_entropy_and_autocovariance():
    innov = GeneralizedGaussian.uniform(1.0)
    model = GenGaussAR(ar=(0.9,), innovation=innov)
    assert model.entropy_rate_bits() == pytest.approx(1.0, abs=1e-14)
    base = innov.variance() / (1.0 - 0.81)
    r = model.autocovariance(2)
    assert r[0] == pytest.approx(base, rel=1e-12)
    assert r[1] == pytest.approx(base * 0.9, rel=1e-12)
    assert model.conditional_entropy_bits(1) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(NotAnalyticError):
        model.conditional_entropy_bits(0)


def test_gengauss_ar_path_variance():
    innov = GeneralizedGaussian.laplace(0.5)
    model = GenGaussAR(ar=(0.6,), innovation=innov)
    path = model.sample_path(300_000, seed=12)
    assert float(np.var(path)) == pytest.approx(model.variance(), rel=0.03)


# ---------------------------------------------------------------------------
# VectorGaussAR


VEC_A = ((0.5, 0.1), (0.0, 0.3))
VEC_Q = ((1.0, 0.2), (0.2, 0.5))


def test_vector_stationary_covariance():
    model = VectorGaussAR(transition=VEC_A, innovation_covariance=VEC_Q)
    # oracle: Lyapunov series sum_j A^j Q (A^T)^j, geometric convergence
    a = np.array(VEC_A)
    term = np.array(VEC_Q)
    total = np.zeros((2, 2))
    for _ in range(200):
        total += term
        term = a @ term @ a.T
    assert np.allclose(model.stationary_covariance(), total, atol=1e-12)


def test_vector_conditional_entropies():
    model = VectorGaussAR(transition=VEC_A, innovation_covariance=VEC_Q)
    assert model.conditional_entropy_bits(0) == pytest.approx(
        3.826963367576797, abs=1e-12
    )
    # k >= 1 conditions on the full past: innovation covariance determinant
    assert model.conditional_entropy_bits(1) == pytest.approx(
        3.534044053502426, abs=1e-12
    )
    assert model.conditional_entropy_bits(7) == model.conditional_entropy_bits(1)
    assert model.entropy_rate_bits() == pytest.approx(3.534044053502426, abs=1e-12)


def test_vector_sample_second_moments():
    model = VectorGaussAR(transition=VEC_A, innovation_covariance=VEC_Q)
    path = model.sample_path(200_000, seed=8)
    hat = path.T @ path / path.shape[0]
    assert np.allclose(hat, model.stationary_covariance(), atol=0.03)


def test_vector_autocovariance_lag1():
    model = VectorGaussAR(transition=VEC_A, innovation_covariance=VEC_Q)
    r = model.autocovariance(1)
    want = np.array(VEC_A) @ model.stationary_covariance()
    assert np.allclose(r[1], want, atol=1e-12)


VEC4_A = (
    (0.5, 0.1, 0.0, 0.0),
    (0.0, 0.3, 0.2, 0.0),
    (0.0, 0.0, -0.4, 0.1),
    (0.1, 0.0, 0.0, 0.6),
)
VEC4_Q = (
    (1.0, 0.2, 0.0, 0.1),
    (0.2, 0.5, 0.1, 0.0),
    (0.0, 0.1, 0.8, 0.2),
    (0.1, 0.0, 0.2, 0.9),
)


def _matmul_path(model, length, seed):
    """The per-sample @ recursion the vector path was, in its draw order: the
    stationary initial state, then the GaussianVector noise."""
    rng = np.random.default_rng(seed)
    prev = processes._psd_factor(model.stationary_covariance()) @ rng.standard_normal(model.dim)
    noise = GaussianVector(model.innovation_covariance).sample(length, rng)
    want = np.empty((length, model.dim))
    for k in range(length):
        prev = model.transition_matrix @ prev + noise[k]
        want[k] = prev
    return want


def test_vector_sample_path_frozen():
    model = VectorGaussAR(transition=VEC4_A, innovation_covariance=VEC4_Q)
    path = model.sample_path(50, 11)
    _assert_path_close(path, _matmul_path(model, 50, 11))
    assert hashlib.sha256(path.tobytes()).hexdigest() == (
        "ec6450c2d14bb23502e461729a343f141b021a209c828277a515e7728682f555"
    )


def _random_vector_model(m: int, radius: float = 0.9, seed=None) -> VectorGaussAR:
    rng = np.random.default_rng(m if seed is None else seed)
    a = rng.uniform(-1.0, 1.0, (m, m))
    a *= radius / np.max(np.abs(np.linalg.eigvals(a)))
    b = rng.uniform(-1.0, 1.0, (m, m))
    return VectorGaussAR(
        transition=tuple(map(tuple, a)), innovation_covariance=tuple(map(tuple, b @ b.T + np.eye(m)))
    )


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_vector_sample_path_is_the_matmul_recursion(m):
    # the path runs in blocks: within PATH_RTOL of the @ recursion for
    # spectral radii up to 0.999 and a non-normal A (a Jordan-like upper
    # triangle), on any BLAS
    jordan = 0.95 * np.eye(m) + np.triu(np.full((m, m), 0.8), 1)
    models = [_random_vector_model(m, radius, seed) for seed, radius in enumerate((0.5, 0.9, 0.999))]
    models.append(VectorGaussAR(transition=tuple(map(tuple, jordan)), innovation_covariance=tuple(map(tuple, np.eye(m)))))
    for i, model in enumerate(models):
        for length in PATH_LENGTHS:
            seed = 100 * i + length
            _assert_path_close(model.sample_path(length, seed), _matmul_path(model, length, seed))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_vector_predictor_kernel_repeats_the_ordered_sum_recursion_bit_for_bit(m):
    # the predictor sums each row of (-A) d_{k-1} in order from 0.0, not
    # through a gemv: its closed loop on the block path is that
    # recursion bit for bit on any BLAS, and within 1e-14 of max|e| of the
    # -(A @ d) recursion it replaced, where a fused gemv rounds differently
    model = _random_vector_model(m)
    a = model.transition_matrix
    rows = (-a).tolist()
    predictor = predictor_controller(model)
    for seed in range(20):
        path = model.sample_path(300, seed)
        z, e = predictor.run(path, True)
        z_want, e_want = np.zeros_like(path), path.copy()
        z_at, e_at = np.zeros_like(path), path.copy()
        for k in range(1, 300):
            d_prev = (e_want[k - 1] - z_want[k - 1]).tolist()
            z_want[k] = [reduce(add, map(mul, row, d_prev), 0.0) for row in rows]
            e_want[k] = path[k] + z_want[k]
            z_at[k] = -(a @ (e_at[k - 1] - z_at[k - 1]))
            e_at[k] = path[k] + z_at[k]
        assert z.tobytes() == z_want.tobytes() and e.tobytes() == e_want.tobytes()
        assert np.max(np.abs(e - e_at)) <= 1e-14 * np.max(np.abs(e_at))


def test_state_factor_is_a_cached_read_only_psd_factor():
    arma = GaussARMA(ar=(0.5, 0.3), ma=(0.4,))
    vec = VectorGaussAR(transition=VEC4_A, innovation_covariance=VEC4_Q)
    for model, cov in (
        (arma, processes._filter_state_cov(arma)),
        (vec, processes._vector_stationary_cov(vec)),
    ):
        factor = processes._state_factor(model)
        assert factor is processes._state_factor(model)
        assert not factor.flags.writeable
        assert factor.tobytes() == processes._psd_factor(cov).tobytes()


# white paths as float.hex, frozen: GaussARMA() and GenGaussAR(ar=()) have no
# filter, so each path is the innovation's own draw on the seed's generator
WHITE_GAUSS_HEX = [
    "0x1.8eb318bbcde14p+0", "0x1.ea19d0a30e48dp-2", "-0x1.86fb2c0730dc5p-1",
    "-0x1.c8419c1ab402cp+0", "-0x1.56f68cafc45f2p+1", "0x1.afdba98478d52p-6",
]
WHITE_GG3_HEX = [
    "0x1.dc9e50dae8c67p-1", "0x1.204ca61544342p-1", "0x1.bc6a7ab59d5bbp-3",
    "0x1.baa36d08b237ep-2", "-0x1.06a0ee68a789ep-2", "-0x1.5a44fceed3744p-4",
]


def test_white_sample_paths_frozen():
    gauss = GaussARMA(innovation_variance=2.0).sample_path(6, 17)
    assert [float(v).hex() for v in gauss] == WHITE_GAUSS_HEX
    assert np.array_equal(gauss, np.random.default_rng(17).normal(0.0, math.sqrt(2.0), 6))
    gg = GeneralizedGaussian(3.0, 0.7)
    white = GenGaussAR(ar=(), innovation=gg).sample_path(6, 17)
    assert [float(v).hex() for v in white] == WHITE_GG3_HEX
    assert np.array_equal(white, gg.sample(6, np.random.default_rng(17)))


def test_vector_validation():
    with pytest.raises(ValueError):
        VectorGaussAR(transition=((1.0, 0.0), (0.0, 0.5)), innovation_covariance=VEC_Q)
    with pytest.raises(ValueError, match="^innovation covariance must be positive definite$"):
        VectorGaussAR(
            transition=VEC_A, innovation_covariance=((1.0, 2.0), (2.0, 1.0))
        )
    with pytest.raises(ValueError, match="^innovation covariance must be symmetric$"):
        VectorGaussAR(transition=VEC_A, innovation_covariance=((1.0, 0.2), (0.3, 1.0)))
    with pytest.raises(NotAnalyticError):
        VectorGaussAR(transition=VEC_A, innovation_covariance=VEC_Q).variance()


# ---------------------------------------------------------------------------
# config parsing


def test_model_from_config_round_trip():
    model = model_from_config(
        {"kind": "gauss_arma", "ar": [0.5], "ma": [0.3],
         "innovation": {"family": "gaussian", "variance": 2.0}}
    )
    assert isinstance(model, GaussARMA)
    assert model.ar == (0.5,)
    assert model.innovation_variance == 2.0

    iid = model_from_config(
        {"kind": "iid", "innovation": {"family": "gg", "p": "inf", "mu": 1.0}}
    )
    assert isinstance(iid, IID)
    assert math.isinf(iid.innovation.power)

    vec = model_from_config(
        {"kind": "vector_gauss_ar", "transition": [[0.5, 0.0], [0.0, 0.5]],
         "innovation_covariance": [[1.0, 0.0], [0.0, 1.0]]}
    )
    assert isinstance(vec, VectorGaussAR)
    assert vec.dim == 2


def test_model_from_config_field_errors():
    with pytest.raises(ValueError, match="kind"):
        model_from_config({"kind": "garch"})
    with pytest.raises(ValueError, match="innovation"):
        model_from_config({"kind": "iid", "innovation": {"family": "cauchy"}})
    with pytest.raises(ValueError, match="innovation"):
        model_from_config({"kind": "gengauss_ar", "ar": [0.5],
                           "innovation": {"family": "gg", "p": 1.0}})
    with pytest.raises(ValueError, match="transition"):
        model_from_config({"kind": "vector_gauss_ar"})


def test_effective_memory_ordering():
    slow = GaussARMA(ar=(0.99,))
    fast = GaussARMA(ar=(0.2,))
    assert slow.effective_memory() > fast.effective_memory()
    assert IID(GeneralizedGaussian.gaussian(1.0)).effective_memory() == 0


def _direct_memory(model):
    """A model's effective memory from its companion matrix's eigenvalues,
    which are the reciprocals of the AR polynomial's roots."""
    if isinstance(model, VectorGaussAR):
        matrix, floor = model.transition_matrix, 0
    else:
        p = len(model.ar)
        if not p:
            return len(model.ma)
        matrix, floor = np.eye(p, k=-1), max(p, len(model.ma))
        matrix[0] = model.ar
    radius = float(np.max(np.abs(np.linalg.eigvals(matrix))))
    if radius <= 0.0:
        return 0 if isinstance(model, VectorGaussAR) else max(floor, 1)
    return max(floor, 1, math.ceil(-1.0 / math.log(radius)))


def _random_constant_models(count, seed):
    """Stable ARMA, GG-AR and vector models, zero AR coefficients among them."""
    rng = np.random.default_rng(seed)
    models = []
    for i in range(count):
        kind = i % 3
        if kind == 2:
            m = int(rng.integers(1, 4))
            a = rng.normal(size=(m, m))
            a *= rng.uniform(0.05, 0.97) / np.max(np.abs(np.linalg.eigvals(a)))
            b = rng.normal(size=(m, m))
            models.append(VectorGaussAR(transition=a, innovation_covariance=b @ b.T + 0.1 * np.eye(m)))
            continue
        p = int(rng.integers(0 if kind == 0 else 1, 4))
        ar = _poly_with_roots_inside(rng, p, rng.uniform(0.05, 0.97))
        if rng.random() < 0.1:
            ar = np.zeros(max(p, 1))
        ar = tuple(-ar)
        if kind == 0:
            ma = tuple(_poly_with_roots_inside(rng, int(rng.integers(0, 3)), rng.uniform(0.05, 0.9)))
            models.append(GaussARMA(ar=ar, ma=ma, innovation_variance=rng.uniform(0.5, 2.0)))
        else:
            power = float(rng.choice([1.0, 1.5, 2.0, 4.0, math.inf]))
            models.append(GenGaussAR(ar=ar, innovation=GeneralizedGaussian(power, rng.uniform(0.5, 2.0))))
    return models


def test_cached_model_constants_are_the_direct_computation():
    models = _random_constant_models(200, 17)
    zero_ar = [getattr(model, "ar", None) for model in models].count
    assert zero_ar((0.0,)) + zero_ar((0.0, 0.0)) + zero_ar((0.0, 0.0, 0.0)) > 0
    # twice over, on equal models built afresh: the cached values serve them too
    for model in [*models, *_random_constant_models(200, 17)]:
        memory = _direct_memory(model)
        assert model.effective_memory() == memory, model
        assert verify.default_burn_in(model) == max(10 * memory, 1000)
        if model.dim > 1:
            assert verify._floor(model, 2.0, None, 100, 0) == (
                bounds.mimo_det_bound_asymptotic(model), "analytic"
            )
            continue
        for p in (1.0, 2.0, 4.0, math.inf):
            assert verify._floor(model, p, None, 100, 0) == (
                bounds.lp_bound_asymptotic(model, p), "analytic"
            )


def test_ar_roots_are_found_once_per_model(monkeypatch):
    roots = processes.npoly.polyroots
    calls = []

    def counted(coeffs):
        calls.append(coeffs)
        return roots(coeffs)

    # coefficients no other test uses, so their memory is not cached yet
    gg = GenGaussAR(ar=(0.6171, -0.2093), innovation=GeneralizedGaussian.laplace(1.0))
    arma = GaussARMA(ar=(0.3317, 0.1213, -0.0511), ma=(0.4,))
    monkeypatch.setattr(processes.npoly, "polyroots", counted)
    for seed in range(3):
        gg.sample_path(50, seed)
        assert verify.default_burn_in(gg) == verify.default_burn_in(arma) == 1000
    assert len(calls) == 2
