"""Nonparametric estimators used to confront the bounds with sample data.

Scalar entropies use the m-spacing estimator with the digamma correction
that makes it exactly unbiased for uniform data,

    H = mean_i [ ln(x_(i+m) - x_(i-m)) - psi(nu_i) ] + psi(n+1)   [nats]

with window m = round(n^(1/3)), clamped indices at the edges and nu_i the
number of order-statistic gaps each spacing spans.  Joint entropies use the
Kozachenko-Leonenko k-nearest-neighbour estimator with Euclidean balls, and
mutual information is assembled as I = h(x) + h(y) - h(x, y), clipped at 0.
Everything is reported in bits.

Standard errors: the spacing estimator uses a 20-fold delete-block
jackknife; the kNN estimators use the spread of their per-point terms
(mean-of-terms delta method), which stays affordable inside large sweeps.
Both are honest to within the usual small-sample caveats and are validated
against closed forms in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import _LN2, GeneralizedGaussian, as_rng

__all__ = [
    "EntropyEstimate",
    "WhitenessReport",
    "GGFitReport",
    "DetEstimate",
    "lp_norm_estimate",
    "entropy_estimate_1d",
    "entropy_estimate_knn",
    "conditional_entropy_estimate",
    "mutual_information_estimate",
    "whiteness_stats",
    "density_fit_gg",
    "covariance_det_estimate",
]

_JACKKNIFE_FOLDS = 20

#: KS pass threshold coefficient (the asymptotic 1% point); the fitted
#: scale makes the test conservative, which is the safe direction for a
#: tightness certificate.
_KS_COEFF = 1.63

#: The whiteness gate: a Ljung-Box portmanteau over lags 1.._LJUNG_BOX_LAGS
#: passes when its p-value is at least _LJUNG_BOX_ALPHA.
_LJUNG_BOX_ALPHA = 0.005
_LJUNG_BOX_LAGS = 10

#: The fewest samples the whiteness test runs on, 100 per Ljung-Box lag; the
#: scoring path leaves the tightness certificate out of a shorter window.
_WHITENESS_MIN_SAMPLES = 100 * _LJUNG_BOX_LAGS

#: The fewest samples a kNN MI or conditional entropy is trusted on, and the
#: most a lag-1 MI uses (longer traces are truncated for it).
_KNN_MIN_SAMPLES = 10_000
_MI_MAX_SAMPLES = 20_000

#: The neighbour order k of every kNN entropy and MI estimate.
_KNN_NEIGHBOURS = 4

#: Threads of each kd-tree query: one per core, except inside the forked
#: sweep workers of ``verify.run_cells``, which set it to 1 so that the
#: workers do not oversubscribe the cores they already share.
_KDTREE_WORKERS = -1


@dataclass(frozen=True)
class EntropyEstimate:
    """A differential entropy estimate in bits with its standard error."""

    value_bits: float
    std_error_bits: float
    estimator_id: str
    sample_count: int
    flag: Optional[str] = None

    def __post_init__(self):
        if self.estimator_id not in ("vasicek", "knn_kl"):
            raise ValueError(f"unknown estimator_id {self.estimator_id!r}")
        if not self.std_error_bits > 0.0:
            raise ValueError(
                f"standard error must be positive, got {self.std_error_bits!r}"
            )
        if self.sample_count < 50:
            raise ValueError(f"too few samples: {self.sample_count}")


@dataclass(frozen=True)
class WhitenessReport:
    """Serial-dependence diagnostics of an error trace."""

    autocorrelations: np.ndarray
    portmanteau: float
    portmanteau_pvalue: float
    mi_lag1_bits: float
    mi_lag1_se: float
    sample_count: int
    mi_flag: Optional[str] = None

    def __post_init__(self):
        if np.max(np.abs(self.autocorrelations)) > 1.0 + 1e-9:
            raise ValueError("autocorrelation outside [-1, 1]")

    def passed(self) -> bool:
        return self.portmanteau_pvalue >= _LJUNG_BOX_ALPHA


@dataclass(frozen=True)
class GGFitReport:
    """KS comparison of samples against the scale-matched GG(p) density."""

    ks_distance: float
    threshold: float
    power: float
    matched_scale: float
    sample_count: int

    @property
    def passed(self) -> bool:
        return self.ks_distance < self.threshold


@dataclass(frozen=True)
class DetEstimate:
    """Determinant of the sample second-moment matrix with jackknife error."""

    value: float
    std_error: float
    singular: bool


# ---------------------------------------------------------------------------
# norms


def lp_norm_estimate(samples: np.ndarray, p: float) -> tuple[float, float]:
    """Sample L_p norm E[|x|^p]^(1/p) and its delta-method standard error.

    p = inf returns the sample maximum of |x|.  That statistic estimates
    the essential supremum strictly from below with exponentially skewed
    error, so a symmetric CLT rate would be miscalibrated; the reported
    scale is the gap from the maximum to the sixth-largest magnitude
    (five mean upper spacings), deliberately conservative so that a
    three-sigma rule keeps a per-cell false-alarm rate around 1e-3 even
    when the loop sits exactly on the bound (the top spacing exceeds
    three times the sum of the next five with probability 4^-5 for
    exponential-type upper tails).
    """
    x = np.asarray(samples, dtype=float).reshape(-1)
    n = x.size
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    if not p >= 1.0:
        raise ValueError(f"p must be >= 1, got {p!r}")
    mag = np.abs(x)
    if math.isinf(p):
        depth = min(5, n - 1)
        top = np.partition(mag, n - 1 - depth)[-(depth + 1) :]
        # numpy places only top[0]; the order of the rest is undefined
        return float(top.max()), float(max(top.max() - top[0], 1e-300))
    with np.errstate(over="ignore"):
        powered = mag**p
        moment = float(powered.mean())
        if moment == 0.0 and not mag.any():
            return 0.0, 1e-300
        finite = 0.0 < moment < math.inf
        se_moment = float(powered.std(ddof=1)) / math.sqrt(n) if finite else math.nan
    if not (finite and se_moment < math.inf):
        # at a large p, |x|^p under- or overflows: an error, never a verdict
        raise ValueError(
            f"L_p norm at p={p:g}: mean(|x|^p) = {moment!r} with standard error "
            f"{se_moment!r} is out of the float64 range"
        )
    value = moment ** (1.0 / p)
    se_value = value * se_moment / (p * moment)
    return value, max(se_value, 1e-300)


# ---------------------------------------------------------------------------
# scalar entropy (spacing estimator)


def _jackknife_se(n: int, leave_out) -> float:
    """Delete-block jackknife SE; ``leave_out(fold)`` is the statistic without ``fold``."""
    g = _JACKKNIFE_FOLDS
    values = np.array([leave_out(fold) for fold in np.array_split(np.arange(n), g)])
    return math.sqrt((g - 1) / g * float(np.sum((values - values.mean()) ** 2)))


def _spacing_entropy_nats(x: np.ndarray) -> float:
    from scipy import special
    n = x.size
    # Window growth n^(1/3), not the classical sqrt(n): the digamma
    # correction makes the estimator exactly unbiased under a uniform law
    # for any m, but for curved densities the residual bias grows with the
    # window while the sampling noise does not shrink with it, so a smaller
    # window keeps the estimate calibrated (bias well under one standard
    # error at n = 2e4 for Gaussian and Laplace tails).
    m = max(2, round(n ** (1.0 / 3.0)))
    order = np.sort(x)
    idx = np.arange(n)
    hi = np.minimum(idx + m, n - 1)
    lo = np.maximum(idx - m, 0)
    gaps = order[hi] - order[lo]
    spans = (hi - lo).astype(float)
    tiny = max((order[-1] - order[0]) * 1e-15, 1e-300)
    gaps = np.maximum(gaps, tiny)
    return float(np.mean(np.log(gaps) - special.digamma(spans))) + float(
        special.digamma(n + 1)
    )


def entropy_estimate_1d(samples: np.ndarray) -> EntropyEstimate:
    """m-spacing entropy of a scalar sample, in bits.

    Window m = round(n^(1/3)); standard error from a 20-fold delete-block
    jackknife.  Samples with more than 10% tied values are flagged ("ties")
    since spacings collapse and the estimate degrades.
    """
    x = np.asarray(samples, dtype=float).reshape(-1)
    n = x.size
    if n < 100:
        raise ValueError(f"need at least 100 samples, got {n}")
    flag = None
    if np.unique(x).size < 0.9 * n:
        flag = "ties"
    value = _spacing_entropy_nats(x) / _LN2
    se = _jackknife_se(n, lambda fold: _spacing_entropy_nats(np.delete(x, fold)) / _LN2)
    return EntropyEstimate(
        value_bits=value,
        std_error_bits=max(se, 1e-12),
        estimator_id="vasicek",
        sample_count=n,
        flag=flag,
    )


# ---------------------------------------------------------------------------
# kNN entropy


def _unit_ball_log_volume(dim: int) -> float:
    from scipy import special
    return 0.5 * dim * math.log(math.pi) - special.gammaln(0.5 * dim + 1.0)


def _sorted_knn_radii(x: np.ndarray, k: int) -> np.ndarray:
    """Distance from each x_i to its k-th nearest other point, by sorting.

    In one dimension the k nearest neighbours of a point lie within k
    positions of it on either side in sorted order, so the radius is the
    k-th smallest of those 2k one-sided gaps (the sample padded with -inf
    below and +inf above).  The gaps are the distances a kd-tree reports:
    sqrt(fl(g^2)) = g exactly for g between about 1e-150 and 1e150.  Tied
    points have equal radii, so the order among them does not matter.
    """
    n = x.size
    order = np.argsort(x)
    padded = np.concatenate([np.full(k, -np.inf), x[order], np.full(k, np.inf)])
    centre = padded[k : k + n]
    # gaps to the j-th point below and above, each ascending in j = 1..k
    below = [centre - padded[k - j : k - j + n] for j in range(1, k + 1)]
    above = [padded[k + j : k + j + n] - centre for j in range(1, k + 1)]
    # the k-th smallest of both lists is the least, over splits of k into
    # j gaps below and k - j above, of the larger of the two last gaps
    radius = np.minimum(below[k - 1], above[k - 1])
    for j in range(1, k):
        radius = np.minimum(radius, np.maximum(below[j - 1], above[k - j - 1]))
    radii = np.empty(n)
    radii[order] = radius
    return radii


def cKDTree(points: np.ndarray):
    """``scipy.spatial.cKDTree(points)``; scipy.spatial loads at the first tree.

    ``_knn_radii`` calls it through this module global, so a profiler can
    rebind the name to count the trees.
    """
    from scipy.spatial import cKDTree as tree
    return tree(points)


def _knn_radii(points: np.ndarray, k: int) -> np.ndarray:
    """Distance from each point to its k-th nearest other point.

    The tree is queried in its own leaf order, where consecutive queries walk
    the same nodes; a point's k-th distance does not depend on that order.
    """
    if points.shape[1] == 1:
        return _sorted_knn_radii(points[:, 0], k)
    tree = cKDTree(points)
    order = tree.indices
    radii = np.empty(len(points))
    radii[order] = tree.query(points[order], k=[k + 1], workers=_KDTREE_WORKERS)[0][:, 0]
    return radii


def _knn_terms_nats(points: np.ndarray, k: int, seed) -> tuple[np.ndarray, Optional[str]]:
    """Per-point terms t_i with H = mean(t_i); jitters exact ties if needed.

    The k-th neighbour radii come from the sorted sample for 1-D points
    and from a kd-tree for two dimensions and up.
    """
    from scipy import special
    n, dim = points.shape
    if not np.isfinite(points).all():
        raise ValueError("kNN points must be finite")
    flag = None
    eps = _knn_radii(points, k)
    if np.any(eps == 0.0):
        flag = "ties"
        rng = as_rng(seed)
        scale = max(float(points.std()), 1e-12)
        points = points + 1e-12 * scale * rng.standard_normal(points.shape)
        eps = np.maximum(_knn_radii(points, k), 1e-300)
    const = (
        float(special.digamma(n))
        - float(special.digamma(k))
        + _unit_ball_log_volume(dim)
    )
    return const + dim * np.log(eps), flag


def _degenerate_support(points: np.ndarray) -> bool:
    centred = points - points.mean(axis=0)
    moment = centred.T @ centred / points.shape[0]
    eigenvalues = np.linalg.eigvalsh(np.atleast_2d(moment))
    return bool(eigenvalues[0] <= 1e-12 * max(eigenvalues[-1], 1e-300))


def entropy_estimate_knn(samples: np.ndarray, seed=0) -> EntropyEstimate:
    """Kozachenko-Leonenko joint entropy of (n, dim<=4) samples, in bits.

    Exactly duplicated points are jittered by 1e-12 of the data scale (and
    the estimate flagged "ties"); samples confined to a lower-dimensional
    affine subspace are flagged "degenerate" since the estimate then
    diverges with n instead of converging.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n, dim = pts.shape
    if n < 100:
        raise ValueError(f"need at least 100 samples, got {n}")
    if dim > 4:
        raise ValueError(f"joint dimension capped at 4, got {dim}")
    terms, flag = _knn_terms_nats(pts, _KNN_NEIGHBOURS, seed)
    if flag is None and _degenerate_support(pts):
        flag = "degenerate"
    value = float(terms.mean()) / _LN2
    se = float(terms.std(ddof=1)) / math.sqrt(n) / _LN2
    return EntropyEstimate(
        value_bits=value,
        std_error_bits=max(se, 1e-12),
        estimator_id="knn_kl",
        sample_count=n,
        flag=flag,
    )


def conditional_entropy_estimate(path: np.ndarray, memory: int, seed=0) -> EntropyEstimate:
    """h(d_k | d_{k-memory}..d_{k-1}) from one stationary path, in bits.

    Delay-embeds the path and differences two joint kNN entropies
    (h(window of memory+1) - h(window of memory)); memory = 0 reduces to
    the marginal entropy.  memory <= 3 keeps the joint dimension inside the
    kNN comfort zone; the path needs at least _KNN_MIN_SAMPLES points.
    """
    x = np.asarray(path, dtype=float).reshape(-1)
    if x.size < _KNN_MIN_SAMPLES:
        raise ValueError(f"need at least {_KNN_MIN_SAMPLES} samples, got {x.size}")
    if not 0 <= memory <= 3:
        raise ValueError(f"memory must be in [0, 3], got {memory}")
    if memory == 0:
        return entropy_estimate_knn(x, seed=seed)
    windows = np.lib.stride_tricks.sliding_window_view(x, memory + 1)
    joint = entropy_estimate_knn(windows, seed=seed)
    past = entropy_estimate_knn(windows[:, :memory], seed=seed)
    value = joint.value_bits - past.value_bits
    se = math.hypot(joint.std_error_bits, past.std_error_bits)
    return EntropyEstimate(
        value_bits=value,
        std_error_bits=max(se, 1e-12),
        estimator_id="knn_kl",
        sample_count=joint.sample_count,
        flag=joint.flag or past.flag,
    )


def mutual_information_estimate(
    x: np.ndarray, y: np.ndarray, seed=0
) -> tuple[float, float, Optional[str]]:
    """I(x; y) = h(x) + h(y) - h(x, y) in bits, clipped at zero.

    Needs at least _KNN_MIN_SAMPLES pairs.  Returns (mi_bits,
    std_error_bits, flag).  The error combines the per-point terms of the
    three kNN estimates (shared-sample covariance included).  Functionally
    dependent inputs drive h(x, y) far down and surface as a large MI with
    the "degenerate" flag: read those as lower-bounded, not converged.
    """
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if xv.ndim == 1:
        xv = xv[:, None]
    if yv.ndim == 1:
        yv = yv[:, None]
    if xv.shape[0] != yv.shape[0]:
        raise ValueError(f"length mismatch: {xv.shape[0]} vs {yv.shape[0]}")
    n = xv.shape[0]
    if n < _KNN_MIN_SAMPLES:
        raise ValueError(f"need at least {_KNN_MIN_SAMPLES} samples, got {n}")
    if xv.shape[1] + yv.shape[1] > 4:
        raise ValueError("joint dimension capped at 4")
    joint = np.hstack([xv, yv])
    terms_x, flag_x = _knn_terms_nats(xv, _KNN_NEIGHBOURS, seed)
    terms_y, flag_y = _knn_terms_nats(yv, _KNN_NEIGHBOURS, seed)
    terms_xy, flag_xy = _knn_terms_nats(joint, _KNN_NEIGHBOURS, seed)
    flag = flag_x or flag_y or flag_xy
    if flag is None and _degenerate_support(joint):
        flag = "degenerate"
    contributions = terms_x + terms_y - terms_xy
    mi = float(contributions.mean()) / _LN2
    se = float(contributions.std(ddof=1)) / math.sqrt(n) / _LN2
    return max(mi, 0.0), max(se, 1e-12), flag


# ---------------------------------------------------------------------------
# whiteness


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The sum of a * b by numpy's pairwise reduction, never through BLAS.

    Above about 10 000 samples OpenBLAS splits a dot over its own spinning
    threads: the sum then depends on the core count, and the threads take
    the cores of the kd-tree and of the other sweep workers.
    """
    return float(np.multiply(a, b).sum())


def whiteness_stats(errors: np.ndarray, *, seed=0) -> WhitenessReport:
    """Ljung-Box portmanteau over lags 1.._LJUNG_BOX_LAGS plus a lag-1 kNN MI.

    Needs length >= _WHITENESS_MIN_SAMPLES; ``WhitenessReport.passed`` reads
    the p-value against _LJUNG_BOX_ALPHA.  The MI column is NaN below
    _KNN_MIN_SAMPLES + 1 points; longer traces are truncated to
    _MI_MAX_SAMPLES pairs for it (the portmanteau always uses the full
    trace).  ``mi_flag`` keeps the MI estimator's "ties" or "degenerate" flag.
    """
    from scipy import special
    x = np.asarray(errors, dtype=float).reshape(-1)
    n = x.size
    if n < _WHITENESS_MIN_SAMPLES:
        raise ValueError(f"need at least {_WHITENESS_MIN_SAMPLES} samples, got {n}")
    centered = x - x.mean()
    denom = _dot(centered, centered)
    if denom == 0.0:
        raise ValueError("constant error trace; whiteness undefined")
    lags = range(1, _LJUNG_BOX_LAGS + 1)
    acf = np.array([_dot(centered[lag:], centered[:-lag]) / denom for lag in lags])
    q_stat = n * (n + 2.0) * float(np.sum(acf**2 / (n - np.array(lags))))
    pvalue = float(special.chdtrc(_LJUNG_BOX_LAGS, q_stat))  # the chi-square upper tail
    if n - 1 >= _KNN_MIN_SAMPLES:
        cap = min(n - 1, _MI_MAX_SAMPLES)
        mi, mi_se, mi_flag = mutual_information_estimate(x[:cap], x[1 : cap + 1], seed=seed)
    else:
        mi, mi_se, mi_flag = math.nan, math.nan, None
    return WhitenessReport(
        autocorrelations=acf,
        portmanteau=q_stat,
        portmanteau_pvalue=pvalue,
        mi_lag1_bits=mi,
        mi_lag1_se=mi_se,
        sample_count=n,
        mi_flag=mi_flag,
    )


# ---------------------------------------------------------------------------
# density fit


def density_fit_gg(samples: np.ndarray, p: float) -> GGFitReport:
    """KS distance between the sample and GG(p) with scale matched to it.

    The scale is the sample L_p norm (the maximum-likelihood-flavored
    moment match); pass/fail compares against 1.63 / sqrt(n).
    """
    x = np.asarray(samples, dtype=float).reshape(-1)
    n = x.size
    if n < 100:
        raise ValueError(f"need at least 100 samples, got {n}")
    scale, _ = lp_norm_estimate(x, p)
    if scale <= 0.0:
        raise ValueError("degenerate sample: L_p norm is zero")
    reference = GeneralizedGaussian(p, scale)
    order = np.sort(x)
    cdf = reference.cdf(order)
    grid = np.arange(1, n + 1) / n
    distance = float(np.max(np.maximum(grid - cdf, cdf - (grid - 1.0 / n))))
    return GGFitReport(
        ks_distance=distance,
        threshold=_KS_COEFF / math.sqrt(n),
        power=float(p),
        matched_scale=scale,
        sample_count=n,
    )


# ---------------------------------------------------------------------------
# covariance determinant


def covariance_det_estimate(samples: np.ndarray) -> DetEstimate:
    """Determinant of the (uncentered) sample second-moment matrix.

    The loop errors being bounded are zero-mean by construction, so the raw
    second moment is the right matrix for the determinant floor.  Standard
    error by a 20-fold delete-block jackknife; a singular or near-singular
    moment matrix (condition beyond 1e12) is flagged.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n, m = pts.shape
    if n < 10 * m:
        raise ValueError(f"need at least {10 * m} samples, got {n}")
    gram = pts.T @ pts
    det = float(np.linalg.det(gram / n))
    se = _jackknife_se(n, lambda f: np.linalg.det((gram - pts[f].T @ pts[f]) / (n - f.size)))
    moment = gram / n
    eigenvalues = np.linalg.eigvalsh(moment)
    singular = bool(
        det <= 0.0 or eigenvalues[0] <= 1e-12 * max(eigenvalues[-1], 1e-300)
    )
    return DetEstimate(value=det, std_error=max(se, 1e-300), singular=singular)
