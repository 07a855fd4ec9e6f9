"""Stationary disturbance models and their per-step conditional entropies.

Four model families:

* ``IID`` -- independent draws from a generalized Gaussian innovation.
* ``GaussARMA`` -- Gaussian ARMA(p, q), d_k = sum phi_i d_{k-i} + w_k
  + sum theta_j w_{k-j}, with stable AR and invertible MA polynomials.
* ``GenGaussAR`` -- finite-order AR driven by generalized Gaussian noise.
* ``VectorGaussAR`` -- first-order vector model d_k = A d_{k-1} + w_k with
  Gaussian innovations.

Each law has one home.  The three scalar families are ARMA models (IID is
ARMA(0, 0), GenGaussAR has no MA part), so one private base reads their
variance, autocovariance, power spectrum and effective memory off (ar, ma,
innovation variance).  The vector model's innovation is a
``GaussianVector``, which checks Q, draws the noise and holds the Gaussian
log-det entropy.  A generalized Gaussian innovation has entropy
log2(C_p mu) with C_p from ``lp_constant``: the equality case of the floor
2^h / C_p in :mod:`entrolim.bounds`.

Sample paths start in steady state: Gaussian models draw their initial
state from the exact stationary distribution (discrete Lyapunov equation on
the filter state), while GenGaussAR runs a burn-in of 10x its effective
memory before emitting samples.

Per-step conditional entropies h(d_k | d_0..d_{k-1}) in bits come from the
Levinson-Durbin recursion on the model autocovariances: for a stationary
Gaussian process the conditional law given k past values is Gaussian with
variance equal to the order-k one-step prediction error P_k, so
h = 0.5 log2(2 pi e P_k).  P_0 is the stationary variance and P_k decreases
monotonically to the innovation variance.

The recursion up to order j reads only R(0..j), so P_k is the same float
from any ladder of order >= k: ``prediction_variances`` runs one cached
ladder per model and power of two, log2(K) ladders for a K-step schedule.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy import linalg as sla

from .distributions import (
    _TWO_PI_E, GaussianVector, GeneralizedGaussian, _gaussian_entropy_bits, as_rng
)
from .spectral import SpectralDensity

__all__ = [
    "DisturbanceModel",
    "IID",
    "GaussARMA",
    "GenGaussAR",
    "VectorGaussAR",
    "EntropySchedule",
    "entropy_schedule",
    "levinson_ladder",
    "prediction_variances",
    "arma_autocovariance",
    "CapacityError",
    "NotAnalyticError",
]

#: Largest Levinson-Durbin order computed for per-step entropies.  Beyond
#: this the recursion cost is quadratic and the values are indistinguishable
#: from the entropy rate anyway; requests past the cap raise CapacityError.
LEVINSON_HORIZON = 4096


class CapacityError(ValueError):
    """Step index beyond the configured Levinson-Durbin horizon."""


class NotAnalyticError(ValueError):
    """Requested quantity has no closed form for this model; estimate it."""


# ---------------------------------------------------------------------------
# linear-prediction primitives


def levinson_ladder(
    acov: np.ndarray, order: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """All predictor orders 0..order plus their error variances P_0..P_order.

    ``coeffs[j]`` predicts from the last j values (most recent first).
    P_0 = acov[0]; P_j = P_{j-1} (1 - k_j^2) with reflection coefficient
    k_j.  Fails if the autocovariance sequence is not positive definite.
    """
    acov = np.asarray(acov, dtype=float)
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if acov.size < order + 1:
        raise ValueError(
            f"need {order + 1} autocovariances for order {order}, got {acov.size}"
        )
    variances = np.empty(order + 1)
    variances[0] = acov[0]
    if acov[0] <= 0.0:
        raise ValueError(f"lag-0 autocovariance must be positive, got {acov[0]!r}")
    coeffs: list[np.ndarray] = [np.zeros(0)]
    prev = np.zeros(0)
    for j in range(1, order + 1):
        if variances[j - 1] <= 0.0:
            raise ValueError(
                f"prediction variance hit {variances[j - 1]!r} at order {j - 1}; "
                "autocovariances are not positive definite"
            )
        reflect = acov[j] - prev @ acov[j - 1 : 0 : -1]
        reflect /= variances[j - 1]
        cur = np.empty(j)
        cur[: j - 1] = prev - reflect * prev[::-1]
        cur[j - 1] = reflect
        variances[j] = variances[j - 1] * (1.0 - reflect**2)
        coeffs.append(cur)
        prev = cur
    return coeffs, variances


def arma_autocovariance(
    ar: tuple[float, ...], ma: tuple[float, ...], sigma2: float, max_lag: int
) -> np.ndarray:
    """Autocovariances R(0..max_lag) of a stable, invertible ARMA model.

    Solves the first max(p, q+1) extended Yule-Walker equations as a linear
    system, then recurses R(j) = sum phi_i R(j-i) for the remaining lags.
    """
    p, q = len(ar), len(ma)
    theta = np.concatenate(([1.0], np.asarray(ma, dtype=float)))
    # MA(inf) weights psi_0..psi_q (only the first q+1 enter the equations).
    psi = np.zeros(q + 1)
    psi[0] = 1.0
    for j in range(1, q + 1):
        psi[j] = theta[j]
        for i in range(1, min(j, p) + 1):
            psi[j] += ar[i - 1] * psi[j - i]
    # Cross terms c_j = sigma2 * sum_{i=j..q} theta_i psi_{i-j}; zero past q.
    cross = np.zeros(max(p, q) + 1)
    for j in range(q + 1):
        cross[j] = sigma2 * sum(theta[i] * psi[i - j] for i in range(j, q + 1))
    # Equations R(j) - sum_i ar_i R(|j-i|) = c_j for j = 0..p close over the
    # unknowns R(0..p); later lags follow by direct recursion.
    system = np.zeros((p + 1, p + 1))
    for j in range(p + 1):
        system[j, j] += 1.0
        for i in range(1, p + 1):
            system[j, abs(j - i)] -= ar[i - 1]
    head = np.linalg.solve(system, cross[: p + 1])
    out = np.empty(max_lag + 1)
    count = min(p + 1, max_lag + 1)
    out[:count] = head[:count]
    for j in range(p + 1, max_lag + 1):
        val = cross[j] if j < len(cross) else 0.0
        for i in range(1, p + 1):
            val += ar[i - 1] * out[j - i]
        out[j] = val
    return out


def _require_finite(name: str, value) -> None:
    """Refuse a model parameter holding NaN or +-inf, naming it."""
    if not np.isfinite(np.asarray(value, dtype=float)).all():
        raise ValueError(f"{name} must be finite, got {value!r}")


def _poly_roots_outside(coeffs_ascending: np.ndarray, what: str) -> None:
    """Require all roots of 1 + c_1 z + ... + c_n z^n outside the unit circle."""
    if len(coeffs_ascending) <= 1:
        return
    roots = npoly.polyroots(coeffs_ascending)
    if roots.size and np.min(np.abs(roots)) <= 1.0 + 1e-12:
        worst = np.min(np.abs(roots))
        raise ValueError(
            f"{what} polynomial has a root with modulus {worst:.6g} <= 1; "
            "the model would not be stationary with a proper innovation "
            "representation"
        )


def _ar_poly(ar: tuple[float, ...]) -> np.ndarray:
    """The AR polynomial 1 - sum ar_i z^i, coefficients in ascending order."""
    return np.concatenate(([1.0], -np.asarray(ar, dtype=float)))


def _rational_spectrum(sigma2: float, ar: tuple, ma: tuple) -> SpectralDensity:
    phi = _ar_poly(ar)
    theta = np.concatenate(([1.0], np.asarray(ma, dtype=float)))

    def evaluate(omega):
        z = np.exp(-1j * np.asarray(omega, dtype=float))
        num = np.abs(npoly.polyval(z, theta)) ** 2
        den = np.abs(npoly.polyval(z, phi)) ** 2
        out = sigma2 * num / den
        if np.isscalar(omega):
            return float(out)
        return out

    return SpectralDensity(evaluate=evaluate)


def _df2t(b, a, x: np.ndarray, zi) -> np.ndarray:
    """Output of the filter b/a on x from state zi, a[0] == 1, len(zi) = n.

    The direct-form-II-transposed update of ``scipy.signal.lfilter``,
    operation for operation, on Python floats: y = z_0 + b_0 x, then
    z_j = (z_{j+1} + b_{j+1} x) - a_{j+1} y and z_{n-1} = b_n x - a_n y, with
    b and a zero-padded to n + 1 taps and each b_j x column taken once from
    numpy.  A pure MA filter (a = [1]) takes lfilter's convolution instead.
    State sizes 1 and 2 are written out: the generic loop costs about three
    times as much per sample.
    """
    n = len(zi)
    if len(a) == 1:
        out = np.convolve(b, x)
        out[:n] += zi
        return out[: len(x)]
    taps = np.zeros((2, n + 1))
    taps[0, : len(b)] = b
    taps[1, : len(a)] = a
    columns = zip(*np.multiply.outer(taps[0], x).tolist())
    a = taps[1].tolist()
    z = np.asarray(zi, dtype=float).tolist()
    out = []
    append = out.append
    if n == 1:
        (a1,), (z0,) = a[1:], z
        for u0, u1 in columns:
            y = z0 + u0
            z0 = u1 - y * a1
            append(y)
    elif n == 2:
        (a1, a2), (z0, z1) = a[1:], z
        for u0, u1, u2 in columns:
            y = z0 + u0
            z0 = (z1 + u1) - y * a1
            z1 = u2 - y * a2
            append(y)
    else:
        for u in columns:
            y = z[0] + u[0]
            for j in range(n - 1):
                z[j] = (z[j + 1] + u[j + 1]) - y * a[j + 1]
            z[n - 1] = u[n] - y * a[n]
            append(y)
    return np.array(out)


def _psd_factor(cov: np.ndarray) -> np.ndarray:
    """Factor L with L L^T = cov for a (possibly singular) PSD matrix."""
    vals, vecs = np.linalg.eigh(cov)
    vals = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(vals)


# ---------------------------------------------------------------------------
# model classes


class DisturbanceModel(abc.ABC):
    """Common surface for the stationary disturbance families."""

    @property
    @abc.abstractmethod
    def dim(self) -> int: ...

    @property
    @abc.abstractmethod
    def descriptor(self) -> str: ...

    @abc.abstractmethod
    def sample_path(self, length: int, seed) -> np.ndarray:
        """Stationary path of shape (length,) or (length, dim)."""

    @abc.abstractmethod
    def conditional_entropy_bits(self, k: int) -> float:
        """h(d_k | d_0..d_{k-1}) in bits under the stationary start."""

    @abc.abstractmethod
    def entropy_rate_bits(self) -> float:
        """Limit of the per-step conditional entropy, in bits."""

    @abc.abstractmethod
    def variance(self) -> float:
        """Stationary per-step variance (scalar models)."""

    @abc.abstractmethod
    def effective_memory(self) -> int:
        """Rough correlation length in steps; 0 for iid."""

    def autocovariance(self, max_lag: int) -> np.ndarray:
        raise NotAnalyticError(f"{type(self).__name__} has no autocovariance routine")

    def power_spectrum(self) -> SpectralDensity:
        raise NotAnalyticError(f"{type(self).__name__} has no spectral routine")

    @staticmethod
    def _check_length(length: int) -> None:
        if length < 1:
            raise ValueError(f"path length must be >= 1, got {length}")

    @staticmethod
    def _check_step(k: int) -> None:
        if k < 0:
            raise ValueError(f"step index must be >= 0, got {k}")
        if k > LEVINSON_HORIZON:
            raise CapacityError(
                f"step {k} beyond the Levinson horizon {LEVINSON_HORIZON}; "
                "use entropy_rate_bits() for the tail"
            )


class _ScalarLinear(DisturbanceModel):
    """A scalar ARMA model's laws, read off (``ar``, ``ma``, its innovation).

    IID is ARMA(0, 0) and GenGaussAR has no MA part.  The innovation is a
    generalized Gaussian ``innovation``, whose entropy is the rate and every
    step's past the AR order; GaussARMA holds a Gaussian variance instead
    and reads its entropies off the Levinson ladder.
    """

    @property
    def innovation_variance(self) -> float:
        return self.innovation.variance()

    @property
    def dim(self) -> int:
        return 1

    def variance(self):
        return float(self.autocovariance(0)[0])

    def autocovariance(self, max_lag):
        if max_lag < 0:
            raise ValueError(f"max_lag must be >= 0, got {max_lag}")
        return arma_autocovariance(self.ar, self.ma, self.innovation_variance, max_lag)

    def power_spectrum(self):
        return _rational_spectrum(self.innovation_variance, self.ar, self.ma)

    def effective_memory(self):
        return _ar_memory(self.ar, len(self.ma))

    def conditional_entropy_bits(self, k):
        self._check_step(k)
        if k < len(self.ar):
            raise NotAnalyticError(
                f"conditional entropy at step {k} < AR order {len(self.ar)} "
                "has no closed form for non-Gaussian innovations; estimate it "
                "from sample paths"
            )
        return self.innovation.entropy_bits()

    def entropy_rate_bits(self):
        return self.innovation.entropy_bits()


@dataclass(frozen=True)
class IID(_ScalarLinear):
    """Independent generalized Gaussian draws (no temporal structure)."""

    innovation: GeneralizedGaussian
    ar = ma = ()

    @property
    def descriptor(self) -> str:
        return f"iid[{self.innovation.descriptor}]"

    def sample_path(self, length, seed):
        self._check_length(length)
        return self.innovation.sample(length, seed)


@dataclass(frozen=True)
class GaussARMA(_ScalarLinear):
    """Gaussian ARMA(p, q): d_k = sum ar_i d_{k-i} + w_k + sum ma_j w_{k-j}.

    The AR polynomial 1 - sum ar_i z^i must have all roots outside the unit
    circle (stationarity) and the MA polynomial 1 + sum ma_j z^j likewise
    (invertibility): the entropy rate, Szego integral, and predictor all
    presume the innovation representation, which a unit-circle or inside
    root would silently break.
    """

    ar: tuple[float, ...] = ()
    ma: tuple[float, ...] = ()
    innovation_variance: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "ar", tuple(float(a) for a in self.ar))
        object.__setattr__(self, "ma", tuple(float(b) for b in self.ma))
        for name in ("ar", "ma", "innovation_variance"):
            _require_finite(name, getattr(self, name))
        if not self.innovation_variance > 0.0:
            raise ValueError(
                f"innovation variance must be positive, got {self.innovation_variance!r}"
            )
        _poly_roots_outside(_ar_poly(self.ar), "AR")
        _poly_roots_outside(np.concatenate(([1.0], np.asarray(self.ma))), "MA")

    @property
    def descriptor(self) -> str:
        return (
            f"gauss_arma[ar={list(self.ar)}, ma={list(self.ma)}, "
            f"var={self.innovation_variance:g}]"
        )

    def sample_path(self, length, seed):
        self._check_length(length)
        rng = as_rng(seed)
        p, q = len(self.ar), len(self.ma)
        sigma = math.sqrt(self.innovation_variance)
        n_state = max(p, q)
        if n_state == 0:
            return rng.normal(0.0, sigma, size=length)
        # The DF2T recursion's state s obeys s_k = A s_{k-1} + B w_k; draw
        # s_{-1} from its stationary law so the emitted path is stationary
        # from the very first sample.
        init = _state_factor(self) @ rng.standard_normal(n_state)
        w = rng.normal(0.0, sigma, size=length)
        b_poly = np.concatenate(([1.0], np.asarray(self.ma)))
        return _df2t(b_poly, _ar_poly(self.ar), w, init)

    def conditional_entropy_bits(self, k):
        self._check_step(k)
        return 0.5 * math.log2(_TWO_PI_E * prediction_variances(self, k)[k])

    def entropy_rate_bits(self):
        return 0.5 * math.log2(_TWO_PI_E * self.innovation_variance)


@dataclass(frozen=True)
class GenGaussAR(_ScalarLinear):
    """Finite-order AR driven by generalized Gaussian innovations.

    Only second-order statistics (autocovariance, spectrum) and the
    innovation entropy are analytic.  Conditional entropies below the AR
    order depend on non-Gaussian marginals and raise NotAnalyticError; the
    verification harness falls back to estimation there.
    """

    ar: tuple[float, ...]
    innovation: GeneralizedGaussian
    ma = ()

    def __post_init__(self):
        object.__setattr__(self, "ar", tuple(float(a) for a in self.ar))
        _require_finite("ar", self.ar)
        _poly_roots_outside(_ar_poly(self.ar), "AR")

    @property
    def descriptor(self) -> str:
        return f"gengauss_ar[ar={list(self.ar)}, {self.innovation.descriptor}]"

    def sample_path(self, length, seed):
        self._check_length(length)
        rng = as_rng(seed)
        burn = 10 * self.effective_memory()
        w = self.innovation.sample(length + burn, rng)
        if not self.ar:
            return w
        # the DF2T recursion from a zero state; the burn-in forgets it
        path = _df2t([1.0], _ar_poly(self.ar), w, np.zeros(len(self.ar)))
        return path[burn:]


@dataclass(frozen=True)
class VectorGaussAR(DisturbanceModel):
    """First-order vector model d_k = A d_{k-1} + w_k, w_k ~ N(0, Q).

    A must have spectral radius < 1 and Q must be symmetric positive
    definite; the innovation w is a ``GaussianVector``, built and checked
    once, at construction.
    """

    transition: tuple[tuple[float, ...], ...]
    innovation_covariance: tuple[tuple[float, ...], ...]
    _noise: GaussianVector = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.transition, dtype=float))
        q = np.atleast_2d(np.asarray(self.innovation_covariance, dtype=float))
        _require_finite("transition", self.transition)
        _require_finite("innovation_covariance", self.innovation_covariance)
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"transition matrix must be square, got {a.shape}")
        if q.shape != a.shape:
            raise ValueError(
                f"innovation covariance shape {q.shape} does not match "
                f"transition shape {a.shape}"
            )
        radius = np.max(np.abs(np.linalg.eigvals(a)))
        if radius >= 1.0 - 1e-12:
            raise ValueError(
                f"transition spectral radius {radius:.6g} >= 1; not stationary"
            )
        try:
            noise = GaussianVector(q)
        except ValueError as exc:  # "covariance must be ...", naming which one
            raise ValueError(f"innovation {exc}") from None
        object.__setattr__(self, "_noise", noise)
        object.__setattr__(self, "transition", tuple(map(tuple, a.tolist())))
        object.__setattr__(self, "innovation_covariance", tuple(map(tuple, q.tolist())))

    @property
    def dim(self) -> int:
        return len(self.transition)

    @property
    def descriptor(self) -> str:
        return f"vector_gauss_ar[m={self.dim}]"

    @property
    def transition_matrix(self) -> np.ndarray:
        return np.asarray(self.transition, dtype=float)

    @property
    def innovation_covariance_matrix(self) -> np.ndarray:
        return np.asarray(self.innovation_covariance, dtype=float)

    def stationary_covariance(self) -> np.ndarray:
        return _vector_stationary_cov(self).copy()

    def sample_path(self, length, seed):
        self._check_length(length)
        rng = as_rng(seed)
        a = self.transition_matrix
        prev = _state_factor(self) @ rng.standard_normal(self.dim)
        noise = self._noise.sample(length, rng)
        out = np.empty((length, self.dim))
        dot = a.dot  # @'s gemv, without np.dot's dispatcher
        for row, w in zip(out, noise):  # d_k = A d_{k-1} + w_k into row k
            dot(prev, row)
            row += w
            prev = row
        return out

    def conditional_entropy_bits(self, k):
        self._check_step(k)
        if k == 0:
            return _gaussian_entropy_bits(_vector_stationary_cov(self))
        return self._noise.entropy_bits()

    def entropy_rate_bits(self):
        return self.conditional_entropy_bits(1)

    def variance(self):
        raise NotAnalyticError(
            "scalar variance undefined for a vector model; use "
            "stationary_covariance()"
        )

    def autocovariance(self, max_lag):
        """Matrix autocovariances R(j) = A^j Sigma, shape (max_lag+1, m, m)."""
        if max_lag < 0:
            raise ValueError(f"max_lag must be >= 0, got {max_lag}")
        a = self.transition_matrix
        out = np.empty((max_lag + 1, self.dim, self.dim))
        out[0] = _vector_stationary_cov(self)
        for j in range(1, max_lag + 1):
            out[j] = a @ out[j - 1]
        return out

    def effective_memory(self):
        radius = np.max(np.abs(np.linalg.eigvals(self.transition_matrix)))
        if radius <= 0.0:
            return 0
        return max(1, math.ceil(-1.0 / math.log(radius)))


def _ar_memory(ar: tuple[float, ...], ma_order: int) -> int:
    if not ar:
        return ma_order
    roots = npoly.polyroots(_ar_poly(ar))
    radius = float(np.max(1.0 / np.abs(roots)))
    decay = max(1, math.ceil(-1.0 / math.log(radius))) if radius > 0 else 1
    return max(len(ar), ma_order, decay)


# cached heavy pieces, keyed by the frozen (hashable) model dataclasses


def prediction_variances(model: DisturbanceModel, k: int) -> np.ndarray:
    """Cached, read-only P_0..P_n; n is the least power of two >= max(k, 1)."""
    if k < 0:
        raise ValueError(f"order must be >= 0, got {k}")
    return _ladder_variances(model, 1 << max(k - 1, 0).bit_length())


@lru_cache(maxsize=128)
def _ladder_variances(model: DisturbanceModel, order: int) -> np.ndarray:
    # keeps no coefficient lists: at order 4096 they take about 67 MB
    _, variances = levinson_ladder(model.autocovariance(order), order)
    variances.flags.writeable = False
    return variances


@lru_cache(maxsize=64)
def _filter_state_cov(model: GaussARMA) -> np.ndarray:
    """Stationary covariance of the ``_df2t`` recursion's state z_0..z_{n-1}."""
    p, q = len(model.ar), len(model.ma)
    n = max(p, q)
    phi = np.zeros(n)
    phi[:p] = model.ar
    theta = np.zeros(n)
    theta[:q] = model.ma
    a_mat = np.zeros((n, n))
    a_mat[:, 0] = phi
    for i in range(n - 1):
        a_mat[i, i + 1] = 1.0
    b_vec = theta + phi
    q_mat = model.innovation_variance * np.outer(b_vec, b_vec)
    return sla.solve_discrete_lyapunov(a_mat, q_mat)


@lru_cache(maxsize=64)
def _vector_stationary_cov(model: VectorGaussAR) -> np.ndarray:
    return sla.solve_discrete_lyapunov(
        model.transition_matrix, model.innovation_covariance_matrix
    )


@lru_cache(maxsize=64)
def _state_factor(model: DisturbanceModel) -> np.ndarray:
    """Read-only ``_psd_factor`` of a Gaussian model's stationary state covariance."""
    vector = isinstance(model, VectorGaussAR)
    factor = _psd_factor((_vector_stationary_cov if vector else _filter_state_cov)(model))
    factor.flags.writeable = False
    return factor


# ---------------------------------------------------------------------------
# entropy schedules


@dataclass(frozen=True)
class EntropySchedule:
    """Per-step conditional entropies h_0..h_{K-1} plus their limit."""

    h_bits: np.ndarray
    entropy_rate_bits: float


def entropy_schedule(model: DisturbanceModel, horizon: int) -> EntropySchedule:
    """Evaluate conditional_entropy_bits at 0..horizon-1 (analytic models)."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    h = np.array([model.conditional_entropy_bits(k) for k in range(horizon)])
    return EntropySchedule(h_bits=h, entropy_rate_bits=model.entropy_rate_bits())

