"""Maximum-entropy distribution families used throughout the package.

The workhorse is the generalized Gaussian (exponential power) family with
density

    f(x) = exp(-|x|^p / (p * mu^p)) / (2 * Gamma((p+1)/p) * p^(1/p) * mu)

parameterized by a shape exponent ``power`` (p >= 1) and an L_p scale
``scale`` (mu > 0) chosen so that E[|x|^p]^(1/p) = mu.  Among all densities
with that L_p norm this family has the largest differential entropy, which
is what makes it the equality case of the error bounds in
:mod:`entrolim.bounds`.  Special members: power=1 is Laplace, power=2 is the
Gaussian with standard deviation mu, and the limit power -> inf is the
uniform density on [-mu, mu].  The infinite case is handled as an explicit
sentinel (``math.inf``), never as a large float.

All entropies in this package are differential entropies in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["GeneralizedGaussian", "GaussianVector"]

#: 2 pi e, the Gaussian entropy-power factor, and ln 2, from nats to bits.
_TWO_PI_E = 2.0 * math.pi * math.e
_LN2 = math.log(2.0)


def as_rng(seed_or_rng) -> np.random.Generator:
    """Coerce an int seed (or an existing Generator) into a Generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def lp_constant(p: float) -> float:
    """C_p = 2 Gamma((p+1)/p) (p e)^(1/p); C_inf = 2.  Requires p >= 1.

    GG(p, mu) has entropy log2(C_p mu): the floor 2^h / C_p's equality case.
    """
    from scipy import special
    if not p >= 1.0:
        raise ValueError(f"p must be >= 1, got {p!r}")
    if math.isinf(p):
        return 2.0
    return 2.0 * special.gamma((p + 1.0) / p) * (p * math.e) ** (1.0 / p)


def _gaussian_entropy_bits(cov: np.ndarray) -> float:
    """log2 sqrt((2 pi e)^m det(cov)), the entropy of N(0, cov) in bits."""
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise ValueError("covariance determinant not positive")
    return 0.5 * (cov.shape[0] * math.log2(_TWO_PI_E) + logdet / _LN2)


@dataclass(frozen=True)
class GeneralizedGaussian:
    """Zero-mean exponential power distribution.

    Parameters
    ----------
    power : float
        Shape exponent p >= 1.  ``math.inf`` selects the uniform density
        on [-scale, scale].
    scale : float
        L_p scale mu > 0.  For finite p this equals E[|x|^p]^(1/p); for
        power=inf it is the support half-width (the essential supremum).
    """

    power: float
    scale: float

    def __post_init__(self):
        if not (isinstance(self.power, (int, float)) and self.power >= 1.0):
            raise ValueError(f"power must be a real >= 1, got {self.power!r}")
        if not (isinstance(self.scale, (int, float)) and 0.0 < self.scale < math.inf):
            raise ValueError(f"scale must be positive and finite, got {self.scale!r}")
        # Normalise ints so frozen-dataclass hashing/eq behave predictably.
        object.__setattr__(self, "power", float(self.power))
        object.__setattr__(self, "scale", float(self.scale))

    # -- constructors for the familiar members ---------------------------

    @classmethod
    def gaussian(cls, std: float) -> "GeneralizedGaussian":
        return cls(2.0, std)

    @classmethod
    def laplace(cls, scale: float) -> "GeneralizedGaussian":
        return cls(1.0, scale)

    @classmethod
    def uniform(cls, half_width: float) -> "GeneralizedGaussian":
        return cls(math.inf, half_width)

    # ---------------------------------------------------------------------

    @property
    def is_uniform(self) -> bool:
        return math.isinf(self.power)

    @property
    def descriptor(self) -> str:
        if self.is_uniform:
            return f"uniform(half_width={self.scale:g})"
        return f"gg(p={self.power:g}, mu={self.scale:g})"

    def pdf(self, x):
        """Density at ``x`` (scalar or array, vectorized)."""
        from scipy import special
        xv = np.asarray(x, dtype=float)
        if self.is_uniform:
            out = np.where(np.abs(xv) <= self.scale, 1.0 / (2.0 * self.scale), 0.0)
        else:
            p, mu = self.power, self.scale
            norm = 2.0 * special.gamma((p + 1.0) / p) * p ** (1.0 / p) * mu
            out = np.exp(-np.abs(xv) ** p / (p * mu**p)) / norm
        if np.isscalar(x):
            return float(out)
        return out

    def cdf(self, x):
        """Distribution function, via the regularized incomplete gamma."""
        from scipy import special
        xv = np.asarray(x, dtype=float)
        if self.is_uniform:
            out = np.clip((xv + self.scale) / (2.0 * self.scale), 0.0, 1.0)
        else:
            p, mu = self.power, self.scale
            tail = special.gammainc(1.0 / p, np.abs(xv) ** p / (p * mu**p))
            out = 0.5 + 0.5 * np.sign(xv) * tail
        if np.isscalar(x):
            return float(out)
        return out

    def entropy_bits(self) -> float:
        """Differential entropy log2(C_p mu) in bits, C_p from ``lp_constant``.

        The power=inf limit is log2(2 mu), the entropy of the uniform
        density on [-mu, mu].
        """
        return math.log2(lp_constant(self.power) * self.scale)

    def lp_norm(self) -> float:
        """E[|x|^p]^(1/p); equals ``scale`` by construction.

        Rejects power=inf: the moment norm diverges there and the right
        quantity is the support half-width ``scale`` itself.
        """
        if self.is_uniform:
            raise ValueError(
                "L_p moment norm is undefined at power=inf; "
                "use `scale` (the support half-width) directly"
            )
        return self.scale

    def variance(self) -> float:
        """E[x^2] = (p mu^p)^(2/p) Gamma(3/p) / Gamma(1/p); mu^2/3 if uniform."""
        from scipy import special
        if self.is_uniform:
            return self.scale**2 / 3.0
        p, mu = self.power, self.scale
        log_ratio = special.gammaln(3.0 / p) - special.gammaln(1.0 / p)
        return (p * mu**p) ** (2.0 / p) * math.exp(log_ratio)

    def sample(self, count: int, seed) -> np.ndarray:
        """Draw ``count`` iid samples, deterministic for a given seed.

        Finite p uses the gamma transform: with G ~ Gamma(1/p, 1),
        |x| = (p mu^p G)^(1/p) and a fair random sign reproduce the density
        exactly.  power=inf draws directly from the uniform.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        rng = as_rng(seed)
        if self.is_uniform:
            return rng.uniform(-self.scale, self.scale, size=count)
        p, mu = self.power, self.scale
        g = rng.standard_gamma(1.0 / p, size=count)
        magnitude = mu * (p * g) ** (1.0 / p)
        signs = 2.0 * rng.integers(0, 2, size=count) - 1.0
        return signs * magnitude


@dataclass(frozen=True)
class GaussianVector:
    """Zero-mean Gaussian vector with a given covariance matrix.

    The covariance must be symmetric (to 1e-12) and positive definite.
    """

    covariance: np.ndarray

    def __post_init__(self):
        cov = np.atleast_2d(np.asarray(self.covariance, dtype=float))
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError(f"covariance must be square, got shape {cov.shape}")
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        if np.linalg.eigvalsh(cov).min() <= 0.0:
            raise ValueError("covariance must be positive definite")
        object.__setattr__(self, "covariance", cov)

    @property
    def dimension(self) -> int:
        return self.covariance.shape[0]

    def entropy_bits(self) -> float:
        """log2 sqrt((2 pi e)^m det(cov)), the Gaussian vector entropy in bits."""
        return _gaussian_entropy_bits(self.covariance)

    def sample(self, count: int, seed) -> np.ndarray:
        rng = as_rng(seed)
        chol = np.linalg.cholesky(self.covariance)
        return rng.standard_normal((count, self.dimension)) @ chol.T
