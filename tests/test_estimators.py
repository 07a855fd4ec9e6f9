"""Estimator calibration against closed-form targets: norms, spacing and
kNN entropies, mutual information, whiteness, density fit, determinants.
"""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special
from scipy.spatial import cKDTree

import entrolim as el
from entrolim import estimators
from entrolim.config import config_from_dict

H_GAUSS = 0.5 * math.log2(2.0 * math.pi * math.e)  # N(0,1), bits


def _rng(seed):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# L_p norms


def test_lp_norm_matches_scale_for_gg_samples():
    for p in (1.0, 2.0, 4.0):
        x = el.GeneralizedGaussian(p, 0.7).sample(200_000, seed=int(p))
        value, se = el.lp_norm_estimate(x, p)
        assert value == pytest.approx(0.7, abs=5 * se)
        assert se < 0.01


def test_lp_norm_inf_is_max_with_spacing_scale():
    x = np.array([0.5, -1.0, 2.0, -3.0, 4.0, -5.0, 6.0, -7.0, 8.0, -10.0])
    value, se = el.lp_norm_estimate(x, math.inf)
    assert value == 10.0
    assert se == 10.0 - 4.0  # gap to the sixth-largest magnitude
    v2, s2 = el.lp_norm_estimate(np.array([1.0, 3.0]), math.inf)
    assert (v2, s2) == (3.0, 2.0)


def _top_placements(n):
    """(samples, expected) pairs whose top six magnitudes, tied, sit at every
    position: every permutation for n <= 7, the block at every offset over a
    lower background for n = 12,000."""
    top = (-9.0, 7.0, -7.0, 5.0, 5.0, -5.0)
    if n > 7:
        background = np.random.default_rng(n).uniform(-4.0, 4.0, n)
        for block in (top, top[::-1]):
            for offset in range(n):
                x = background.copy()
                x[(offset + np.arange(6)) % n] = block
                yield x, (9.0, 4.0)
        return
    # at n = 7 one value below the top six, or tied with the sixth
    for values in [top[:n]] if n < 7 else [top + (4.0,), top + (5.0,)]:
        ranked = sorted(map(abs, values))
        expected = (ranked[-1], max(ranked[-1] - ranked[-min(6, n)], 1e-300))
        for order in itertools.permutations(values):
            yield np.array(order), expected


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 12_000])
def test_lp_norm_inf_reads_the_top_block_without_its_undefined_order(n):
    # np.partition places only the kth entry; the sample maximum and the gap to
    # the sixth-largest magnitude must not hang on where it leaves the others
    for x, expected in _top_placements(n):
        assert el.lp_norm_estimate(x, math.inf) == expected


def test_lp_norm_edge_cases():
    with pytest.raises(ValueError, match="samples"):
        el.lp_norm_estimate(np.array([1.0]), 2.0)
    with pytest.raises(ValueError, match="p"):
        el.lp_norm_estimate(np.ones(10), 0.5)
    value, se = el.lp_norm_estimate(np.zeros(10), 2.0)
    assert value == 0.0 and se == 1e-300


def test_lp_norm_out_of_float_range_is_an_error_not_a_verdict():
    # at p = 2000, |x|^p underflows to 0 for uniform data of half-width 0.5
    # and overflows to inf for an AR(0.9) path; both must raise, naming p
    unif = el.GeneralizedGaussian.uniform(0.5).sample(5000, 1)
    ar1 = el.GaussARMA(ar=(0.9,)).sample_path(5000, 1)
    for x in (unif, ar1):
        with pytest.raises(ValueError, match="p=2000"):
            el.lp_norm_estimate(x, 2000.0)
    config = config_from_dict(
        {
            "models": [
                {"kind": "iid", "innovation": {"family": "gg", "p": "inf", "mu": 0.5}},
                {"kind": "gauss_arma", "ar": [0.9]},
            ],
            "p_values": [2000],
            "horizon": 3000,
        }
    )
    for tightness in (False, True):
        result = el.sweep(config, tightness=tightness)
        assert result.rows == ()
        assert [cell for cell, _ in result.errors] == ["c00000", "c00001"]
        for _, message in result.errors:
            assert message.startswith("ValueError: L_p norm at p=2000:")


# ---------------------------------------------------------------------------
# spacing entropy


def test_spacing_entropy_gaussian():
    x = _rng(0).standard_normal(20_000)
    est = el.entropy_estimate_1d(x)
    assert est.estimator_id == "vasicek"
    assert est.flag is None
    assert abs(est.value_bits - H_GAUSS) <= 4 * est.std_error_bits
    assert est.std_error_bits < 0.05


def test_spacing_entropy_uniform():
    x = _rng(1).uniform(-1.0, 1.0, size=20_000)
    est = el.entropy_estimate_1d(x)  # h = 1 bit exactly
    assert abs(est.value_bits - 1.0) <= 4 * est.std_error_bits


def test_spacing_entropy_scale_shift():
    x = _rng(2).standard_normal(5_000)
    base = el.entropy_estimate_1d(x)
    scaled = el.entropy_estimate_1d(4.0 * x)
    assert scaled.value_bits - base.value_bits == pytest.approx(2.0, abs=1e-9)


def test_spacing_entropy_flags_ties():
    x = np.repeat(_rng(3).standard_normal(50), 4)
    est = el.entropy_estimate_1d(x)
    assert est.flag == "ties"


def test_spacing_entropy_needs_samples():
    with pytest.raises(ValueError, match="100"):
        el.entropy_estimate_1d(np.arange(99, dtype=float))


# ---------------------------------------------------------------------------
# kNN entropy


def test_knn_entropy_2d_gaussian():
    pts = _rng(4).standard_normal((20_000, 2))
    est = el.entropy_estimate_knn(pts)
    target = math.log2(2.0 * math.pi * math.e)  # h(N(0, I_2))
    assert est.estimator_id == "knn_kl"
    assert abs(est.value_bits - target) <= 4 * est.std_error_bits


def test_knn_entropy_1d_promotes():
    x = _rng(5).standard_normal(5_000)
    est = el.entropy_estimate_knn(x)
    assert abs(est.value_bits - H_GAUSS) <= 5 * est.std_error_bits


def test_knn_entropy_flags():
    x = _rng(6).standard_normal(500)
    # a line off the origin is as degenerate as one through it
    for offset in (0.0, 1.0, 10.0):
        line = np.column_stack([x, 2.0 * x + offset])
        assert el.entropy_estimate_knn(line).flag == "degenerate", offset
    # five copies of each point: the default 4th neighbour sits at distance 0
    dup = np.repeat(_rng(7).standard_normal((60, 2)), 5, axis=0)
    assert el.entropy_estimate_knn(dup).flag == "ties"


def test_knn_entropy_validation():
    pts = _rng(8).standard_normal((200, 5))
    with pytest.raises(ValueError, match="dimension"):
        el.entropy_estimate_knn(pts)
    with pytest.raises(ValueError, match="100"):
        el.entropy_estimate_knn(_rng(8).standard_normal((50, 2)))


# The sorted-sample radii must be the kd-tree's radii bit for bit.  A tree
# reports sqrt(fl(g^2)) for a gap g, which is exactly g while g^2 neither
# underflows nor overflows, i.e. for gaps between about 1e-150 and 1e150;
# the samples below stay inside that range.


def _tree_radii(x, k):
    pts = x[:, None]
    return cKDTree(pts).query(pts, k=k + 1)[0][:, k]


def _tree_terms(points, k, seed):
    """The kd-tree form of the kNN terms, jittered retry included."""
    n, dim = points.shape
    flag = None
    eps = cKDTree(points).query(points, k=k + 1)[0][:, k]
    if np.any(eps == 0.0):
        flag = "ties"
        rng = estimators.as_rng(seed)
        scale = max(float(points.std()), 1e-12)
        points = points + 1e-12 * scale * rng.standard_normal(points.shape)
        eps = np.maximum(cKDTree(points).query(points, k=k + 1)[0][:, k], 1e-300)
    const = (
        float(special.digamma(n))
        - float(special.digamma(k))
        + estimators._unit_ball_log_volume(dim)
    )
    return const + dim * np.log(eps), flag


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sorted_knn_radii_match_kdtree(k):
    g = _rng(30 + k)
    samples = {
        "tie-free": g.standard_normal(11_000),
        "wide": g.standard_normal(5_000) * 1e6,
        "tied": np.round(g.standard_normal(11_000), 2),
        "n = k + 1": g.standard_normal(k + 1),
        "one value": np.full(k + 3, 0.25),
    }
    for name, x in samples.items():
        radii = estimators._sorted_knn_radii(x, k)
        assert np.array_equal(radii, _tree_radii(x, k)), name


@pytest.mark.parametrize("k", [1, 4])
def test_knn_terms_match_kdtree_reference(k):
    g = _rng(40 + k)
    for x, flag in (
        (g.standard_normal(3_000), None),
        # ties at the k-th neighbour force the jittered retry
        (np.round(g.standard_normal(3_000), 2), "ties"),
    ):
        pts = x[:, None]
        terms, got_flag = estimators._knn_terms_nats(pts, k, seed=5)
        ref_terms, ref_flag = _tree_terms(pts, k, seed=5)
        assert got_flag == ref_flag == flag
        assert np.array_equal(terms, ref_terms)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_kdtree_radii_queried_in_leaf_order_are_the_input_order_query(dim):
    # _knn_radii queries the tree in its leaf order and scatters the radii
    # back: each is the float of the input-order query, duplicate points (the
    # "ties" path, zero radii at k = 1) included
    g = _rng(60 + dim)
    for n in (10_000, 20_000):
        distinct = g.standard_normal((n, dim))
        doubled = np.repeat(g.standard_normal((n // 2, dim)), 2, axis=0)
        for pts in (distinct, doubled):
            for k in (1, 4):
                want = cKDTree(pts).query(pts, k=k + 1)[0][:, k]
                assert np.array_equal(estimators._knn_radii(pts, k), want)
        assert not estimators._knn_radii(doubled, 1).any()


def test_knn_terms_reject_non_finite_points():
    x = _rng(50).standard_normal(10_000)
    bad = x.copy()
    bad[7] = math.nan
    for points in (bad[:, None], np.column_stack([bad, x])):
        with pytest.raises(ValueError, match="finite"):
            estimators._knn_terms_nats(points, 4, seed=0)
    with pytest.raises(ValueError, match="finite"):
        el.mutual_information_estimate(bad, x)


def test_conditional_entropy_ar1():
    model = el.GaussARMA(ar=(0.9,))
    path = model.sample_path(30_000, seed=10)
    est = el.conditional_entropy_estimate(path, memory=1)
    # one lag is the full memory of AR(1): h(d_k | d_{k-1}) = h(N(0,1))
    assert abs(est.value_bits - H_GAUSS) <= 4 * est.std_error_bits


def test_conditional_entropy_memory_zero_is_marginal():
    path = el.GaussARMA(ar=(0.5,)).sample_path(12_000, seed=11)
    a = el.conditional_entropy_estimate(path, memory=0)
    b = el.entropy_estimate_knn(path)
    assert a.value_bits == b.value_bits


def test_conditional_entropy_validation():
    path = np.zeros(500)
    with pytest.raises(ValueError, match="10000"):
        el.conditional_entropy_estimate(path, memory=1)
    long_path = _rng(12).standard_normal(12_000)
    with pytest.raises(ValueError, match="memory"):
        el.conditional_entropy_estimate(long_path, memory=4)


# ---------------------------------------------------------------------------
# mutual information


def test_mi_independent_near_zero():
    g = _rng(13)
    mi, se, flag = el.mutual_information_estimate(
        g.standard_normal(20_000), g.standard_normal(20_000)
    )
    assert flag is None
    assert mi >= 0.0
    assert mi <= 3 * se + 0.01


def test_mi_additive_noise_channel():
    g = _rng(14)
    x = g.standard_normal(20_000)
    y = x + 0.5 * g.standard_normal(20_000)
    truth = 0.5 * math.log2(1.0 + 4.0)  # 1.1609...
    mi, se, flag = el.mutual_information_estimate(x, y)
    assert flag is None
    assert mi == pytest.approx(truth, abs=0.1)


def test_mi_functional_dependence_flagged():
    x = _rng(15).standard_normal(12_000)
    mi, _, flag = el.mutual_information_estimate(x, 3.0 * x)
    assert flag == "degenerate"
    assert mi > 2.0  # lower-bounded, not converged


def test_mi_validation():
    g = _rng(16)
    with pytest.raises(ValueError, match="mismatch"):
        el.mutual_information_estimate(g.standard_normal(100), g.standard_normal(99))
    with pytest.raises(ValueError, match="at least"):
        el.mutual_information_estimate(g.standard_normal(100), g.standard_normal(100))


# ---------------------------------------------------------------------------
# whiteness


def test_whiteness_passes_iid():
    report = el.whiteness_stats(_rng(17).standard_normal(20_000))
    assert report.passed()
    assert report.portmanteau_pvalue > 0.005
    assert np.max(np.abs(report.autocorrelations)) < 0.03
    assert report.mi_lag1_bits < 0.01


def test_whiteness_fails_colored_trace():
    path = el.GaussARMA(ar=(0.9,)).sample_path(20_000, seed=18)
    report = el.whiteness_stats(path)
    assert not report.passed()
    assert report.autocorrelations[0] == pytest.approx(0.9, abs=0.02)
    # lag-1 MI of a rho = 0.9 Gaussian pair: -log2(1 - 0.81)/2 = 1.198
    assert report.mi_lag1_bits == pytest.approx(1.198, abs=0.15)


def test_whiteness_mi_nan_for_short_traces():
    report = el.whiteness_stats(_rng(19).standard_normal(1_500))
    assert math.isnan(report.mi_lag1_bits)
    assert report.mi_flag is None
    assert math.isfinite(report.portmanteau)


def test_whiteness_keeps_the_mi_flag():
    x = _rng(21).standard_normal(12_000)
    assert el.whiteness_stats(x).mi_flag is None
    # 2-decimal rounding ties many 4th neighbours of the lag pairs
    assert el.whiteness_stats(np.round(x, 2)).mi_flag == "ties"


def test_whiteness_sums_do_not_depend_on_blas_threads():
    # past about 10 000 samples OpenBLAS splits a dot over its threads, which
    # moves its last bits; the Ljung-Box sums must not go through BLAS
    code = (
        "import numpy as np, entrolim as el\n"
        "r = el.whiteness_stats(np.random.default_rng(3).standard_normal(11_000))\n"
        "print(*[float(v).hex() for v in r.autocorrelations], r.portmanteau.hex())\n"
    )
    src = str(Path(el.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
    one_thread = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    report = el.whiteness_stats(_rng(3).standard_normal(11_000))
    here = [float(v).hex() for v in report.autocorrelations] + [report.portmanteau.hex()]
    assert here == one_thread


def test_ljung_box_tail_is_scipy_stats_chi2_sf():
    # the p-value calls special.chdtrc, the function chi2.sf evaluates, so that
    # estimators need not import scipy.stats
    from scipy import stats

    q = np.concatenate([np.linspace(0.0, 1e4, 100_001), np.geomspace(1e-12, 1e4, 10_001)])
    tail = special.chdtrc(estimators._LJUNG_BOX_LAGS, q)
    assert tail.tobytes() == stats.chi2.sf(q, estimators._LJUNG_BOX_LAGS).tobytes()
    report = el.whiteness_stats(el.GaussARMA(ma=(0.05,)).sample_path(2_000, seed=4))
    want = stats.chi2.sf(report.portmanteau, estimators._LJUNG_BOX_LAGS)
    assert 0.0 < report.portmanteau_pvalue < 1.0
    assert report.portmanteau_pvalue.hex() == float(want).hex()


def test_whiteness_validation():
    with pytest.raises(ValueError, match="at least"):
        el.whiteness_stats(np.ones(500))
    with pytest.raises(ValueError, match="constant"):
        el.whiteness_stats(np.ones(2_000))


# ---------------------------------------------------------------------------
# density fit


def test_gg_fit_accepts_matched_family():
    for p in (1.0, 2.0):
        x = el.GeneralizedGaussian(p, 1.3).sample(20_000, seed=21)
        report = el.density_fit_gg(x, p)
        assert report.passed
        assert report.threshold == pytest.approx(1.63 / math.sqrt(20_000))
        assert report.matched_scale == pytest.approx(1.3, rel=0.05)


def test_gg_fit_rejects_mismatched_family():
    x = el.GeneralizedGaussian.laplace(1.0).sample(20_000, seed=22)
    report = el.density_fit_gg(x, 2.0)
    assert not report.passed
    assert report.ks_distance > 2 * report.threshold


def test_gg_fit_validation():
    with pytest.raises(ValueError, match="100"):
        el.density_fit_gg(np.ones(50), 2.0)
    with pytest.raises(ValueError, match="degenerate"):
        el.density_fit_gg(np.zeros(200), 2.0)


# ---------------------------------------------------------------------------
# covariance determinant


def test_det_estimate_2d():
    q = np.array([[1.0, 0.2], [0.2, 0.5]])
    pts = _rng(23).multivariate_normal(np.zeros(2), q, size=50_000)
    est = el.covariance_det_estimate(pts)
    assert not est.singular
    assert est.value == pytest.approx(0.46, abs=5 * est.std_error)
    assert est.value == pytest.approx(0.46, rel=0.05)


def test_det_estimate_flags_singular():
    x = _rng(24).standard_normal(1_000)
    pts = np.column_stack([x, -x])
    est = el.covariance_det_estimate(pts)
    assert est.singular


def test_det_estimate_1d_is_second_moment():
    x = _rng(25).standard_normal(10_000)
    est = el.covariance_det_estimate(x)
    assert est.value == pytest.approx(float(np.mean(x**2)), rel=1e-12)


def test_det_estimate_needs_samples():
    with pytest.raises(ValueError, match="at least"):
        el.covariance_det_estimate(np.ones((15, 2)))


# ---------------------------------------------------------------------------
# report validation


def test_entropy_estimate_guards():
    with pytest.raises(ValueError, match="estimator_id"):
        el.EntropyEstimate(1.0, 0.1, "magic", 1000)
    with pytest.raises(ValueError, match="standard error"):
        el.EntropyEstimate(1.0, 0.0, "vasicek", 1000)
    with pytest.raises(ValueError, match="few"):
        el.EntropyEstimate(1.0, 0.1, "vasicek", 10)


def test_whiteness_report_guard():
    with pytest.raises(ValueError, match="autocorrelation"):
        el.WhitenessReport(
            autocorrelations=np.array([1.5]),
            portmanteau=1.0,
            portmanteau_pvalue=0.5,
            mi_lag1_bits=0.0,
            mi_lag1_se=0.01,
            sample_count=2_000,
        )
