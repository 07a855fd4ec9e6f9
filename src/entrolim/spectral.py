"""Spectral entropy rates and how far a process is from white Gaussian.

For a stationary scalar process with power spectral density S(w) the
Gaussian process sharing that spectrum has entropy rate

    (1/2pi) Integral_{-pi}^{pi} log2 sqrt(2 pi e S(w)) dw      [bits/step]

(the classical connection between prediction error and the geometric mean
of the spectrum).  The actual entropy rate of a non-Gaussian process falls
short of this by a nonnegative negentropy rate J; subtracting J and
renormalizing gives the scalar "Gaussianity-whiteness" figure

    GW = 2^(2 h_rate) / (2 pi e Var)   in [0, 1],

equal to 1 exactly for white Gaussian noise, and to (1 - a^2) for a
Gaussian AR(1) with pole a.

The integral is evaluated by adaptive Gauss-Legendre quadrature with
interval bisection (absolute tolerance 1e-9, at most 2^20 nodes).  The
integrand is even in w, so only [0, pi] is integrated and doubled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "SpectralDensity",
    "SpectralIntegralError",
    "szego_entropy_integral_bits",
    "negentropy_rate_bits",
    "gaussianity_whiteness",
]

_TWO_PI_E = 2.0 * math.pi * math.e


class SpectralIntegralError(RuntimeError):
    """Quadrature failure: spectrum hit zero / non-finite, or node budget spent."""


@dataclass(frozen=True)
class SpectralDensity:
    """Power spectral density on [-pi, pi].

    ``evaluate`` maps angular frequency (scalar or array) to S(w) >= 0.
    ``rational`` optionally records (innovation_variance, ar, ma) when the
    spectrum is the rational one of an ARMA model; purely informational.

    Even symmetry and nonnegativity are checked at construction on a
    sampled grid; a violation raises ValueError.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    rational: Optional[tuple] = None

    def __post_init__(self):
        probe = np.linspace(0.0, math.pi, 65)
        left = np.asarray(self.evaluate(-probe), dtype=float)
        right = np.asarray(self.evaluate(probe), dtype=float)
        if not np.all(np.isfinite(right)):
            raise ValueError("spectral density not finite on the probe grid")
        if np.any(right < 0.0):
            raise ValueError("spectral density negative on the probe grid")
        scale = max(float(right.max()), 1e-300)
        if np.max(np.abs(left - right)) > 1e-9 * scale:
            raise ValueError("spectral density is not even in w")

    def __call__(self, omega):
        return self.evaluate(omega)


#: (order, nodes, weights) of the coarse and fine Gauss-Legendre rules
_GAUSS_LEGENDRE_RULES = tuple(
    (order, *np.polynomial.legendre.leggauss(order)) for order in (10, 20)
)


def _gauss_legendre_pair(f, lo: float, hi: float):
    """Return (coarse, fine, node_count) Gauss-Legendre estimates on [lo, hi]."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    total = 0.0
    results = []
    for order, nodes, weights in _GAUSS_LEGENDRE_RULES:
        values = f(mid + half * nodes)
        values = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(values)):
            raise SpectralIntegralError(
                f"non-finite integrand on [{lo:.6g}, {hi:.6g}] "
                "(spectrum has a zero or a pole there?)"
            )
        results.append(half * float(weights @ values))
        total += order
    return results[0], results[1], total


def _adaptive_gauss_legendre(
    f, lo: float, hi: float, abs_tol: float, max_nodes: int
) -> float:
    """Adaptive bisection Gauss-Legendre integral of f on [lo, hi]."""
    width_total = hi - lo
    stack = [(lo, hi)]
    acc = 0.0
    nodes_used = 0
    while stack:
        a, b = stack.pop()
        coarse, fine, n = _gauss_legendre_pair(f, a, b)
        nodes_used += n
        if nodes_used > max_nodes:
            raise SpectralIntegralError(
                f"node budget {max_nodes} exhausted; integrand too rough "
                "(spectrum nearly singular?)"
            )
        if abs(fine - coarse) <= abs_tol * (b - a) / width_total:
            acc += fine
        else:
            mid = 0.5 * (a + b)
            stack.append((a, mid))
            stack.append((mid, b))
    return acc


def szego_entropy_integral_bits(
    density: SpectralDensity, *, abs_tol: float = 1e-9, max_nodes: int = 2**20
) -> float:
    """Entropy rate in bits of the Gaussian process with spectrum ``density``.

    Computes (1/2pi) Integral log2 sqrt(2 pi e S(w)) dw over [-pi, pi].  For
    the rational spectrum of a stable, invertible ARMA model this equals
    0.5 log2(2 pi e innovation_variance) exactly.  Raises
    SpectralIntegralError if S vanishes (log divergence) or the node budget
    is exhausted.
    """

    def integrand(omega):
        s = np.asarray(density(omega), dtype=float)
        if np.any(s <= 0.0) or not np.all(np.isfinite(s)):
            raise SpectralIntegralError(
                "spectral density hit zero or a non-finite value; "
                "the log integral diverges"
            )
        return 0.5 * np.log2(_TWO_PI_E * s)

    integral = _adaptive_gauss_legendre(integrand, 0.0, math.pi, abs_tol, max_nodes)
    return integral / math.pi  # (1/2pi) * 2 * Integral_[0,pi]


def negentropy_rate_bits(model, **quad_kw) -> float:
    """Gap J >= 0 between the Gaussian spectral entropy rate and the model's.

    ``model`` must provide power_spectrum() and entropy_rate_bits().  J is 0
    exactly for Gaussian-family models; a materially negative value (below
    -1e-6 bits) means the two routes disagree and is raised as an error
    rather than clamped.
    """
    gap = szego_entropy_integral_bits(model.power_spectrum(), **quad_kw)
    gap -= model.entropy_rate_bits()
    if gap < -1e-6:
        raise RuntimeError(
            f"negentropy rate came out negative ({gap:.3e} bits): "
            "spectral and analytic entropy rates are inconsistent"
        )
    return max(gap, 0.0)


def gaussianity_whiteness(model) -> float:
    """GW = 2^(2 h_rate) / (2 pi e Var), in [0, 1].

    1.0 iff the process is white Gaussian; whitening loss and
    non-Gaussianity loss both pull it down.  ``model`` must provide
    entropy_rate_bits() and variance().
    """
    rate = model.entropy_rate_bits()
    var = model.variance()
    if var <= 0.0:
        raise ValueError(f"model variance must be positive, got {var!r}")
    gw = 2.0 ** (2.0 * rate) / (_TWO_PI_E * var)
    if gw > 1.0 + 1e-9:
        raise RuntimeError(
            f"whiteness figure {gw!r} exceeds 1: entropy rate and variance "
            "are inconsistent"
        )
    return min(max(gw, 0.0), 1.0)
