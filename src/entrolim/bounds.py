"""Entropy-based lower bounds on feedback error norms.

For any causal controller acting on a disturbance sequence, the error at
step k satisfies

    E[|e_k|^p]^(1/p)  >=  2^h / C_p,      h = h(d_k | d_0..d_{k-1}) bits,

with the constant C_p = 2 Gamma((p+1)/p) (p e)^(1/p) from the maximum
entropy property of the generalized Gaussian family (C_1 = 2e,
C_2 = sqrt(2 pi e), C_inf = 2, where p = inf reads the essential supremum).
No property of the controller enters: only the conditional entropy of the
disturbance.  The asymptotic bound replaces h with the entropy rate; the
spectral route rebuilds that rate from the power spectrum, and the GW route
restates it through the Gaussianity-whiteness figure and the variance.
For vector errors the determinant of the second-moment matrix is bounded
by 2^(2h) / (2 pi e)^m, and by Hadamard's inequality the product of the
per-channel second moments obeys the same floor.

Two functions hold the arithmetic: ``lp_bound`` (the max-deviation floor
is its p = inf case) and ``mimo_det_bound`` (its m = 1 case is the
variance floor, the square of the p = 2 one).  Every ``BoundReport``
derives its value from one of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from . import spectral as _spectral
from .distributions import _TWO_PI_E, lp_constant

__all__ = [
    "lp_constant",
    "lp_bound",
    "mimo_det_bound",
    "lp_bound_at_step",
    "lp_bound_asymptotic",
    "spectral_lp_bound",
    "gw_lp_bound",
    "mimo_det_bound_at_step",
    "mimo_det_bound_asymptotic",
    "BoundReport",
]

def lp_bound(h_bits: float, p: float) -> float:
    """Norm floor 2^h_bits / C_p for the L_p error norm."""
    return 2.0**h_bits / lp_constant(p)


def mimo_det_bound(h_bits: float, m: int) -> float:
    """Floor 2^(2 h) / (2 pi e)^m on det E[e_k e_k^T] for m-vector errors.

    The exponent on 2 is twice the conditional entropy: with m = 1 this is
    the variance floor, the square of lp_bound(h, 2).  Hadamard's inequality
    gives prod_i E[e_k(i)^2] >= det E[e_k e_k^T], so the product of
    per-channel second moments inherits this floor unchanged.
    """
    if m < 1:
        raise ValueError(f"dimension must be >= 1, got {m}")
    return 2.0 ** (2.0 * h_bits) / _TWO_PI_E**m


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: which form, at what entropy, and its value.

    ``form`` is an L_p floor (``at_step``, ``asymptotic``, ``spectral`` or
    ``gw``) or the determinant floor ``mimo_det`` of an m = ``dimension``
    vector.  ``k`` is None for the asymptotic, spectral and GW forms.  The
    record holds what was measured; ``value`` is derived once at
    construction, by lp_bound(h_bits, p) or mimo_det_bound(h_bits,
    dimension), so an invalid p raises here, and ``constant`` (C_p, or
    (2 pi e)^m for the determinant) is read off the same inputs.
    """

    form: str
    p: Optional[float]
    k: Optional[int]
    h_bits: float
    dimension: int = 1
    value: float = field(init=False)

    def __post_init__(self):
        if self.form == "mimo_det":
            value = mimo_det_bound(self.h_bits, self.dimension)
        elif self.form in ("at_step", "asymptotic", "spectral", "gw"):
            value = lp_bound(self.h_bits, self.p)
        else:
            raise ValueError(f"unknown bound form {self.form!r}")
        object.__setattr__(self, "value", value)

    @property
    def constant(self) -> float:
        if self.form == "mimo_det":
            return _TWO_PI_E**self.dimension
        return lp_constant(self.p)


def lp_bound_at_step(model, p: float, k: int) -> BoundReport:
    """Error-norm floor at step k from the model's conditional entropy."""
    return BoundReport("at_step", float(p), int(k), model.conditional_entropy_bits(k))


def lp_bound_asymptotic(model, p: float) -> BoundReport:
    """Long-run error-norm floor from the model's entropy rate."""
    return BoundReport("asymptotic", float(p), None, model.entropy_rate_bits())


def spectral_lp_bound(model, p: float) -> BoundReport:
    """Asymptotic floor from the spectrum: h = S - J_w.

    S is the Szego integral of power_spectrum(), computed first, so a model
    without a spectrum raises NotAnalyticError.  J_w = 1/2 log2(2 pi e
    innovation_variance) - entropy_rate_bits() is the innovation's
    negentropy, which filtering leaves unchanged (0 for GaussARMA).  The
    route meets lp_bound_asymptotic iff the spectrum's geometric mean is the
    innovation variance (Kolmogorov-Szego): it checks the spectrum, the
    AR/MA polynomials and the innovation variance, not the innovation
    entropy that both routes read.
    """
    szego = _spectral.szego_entropy_integral_bits(model.power_spectrum())
    j_w = 0.5 * math.log2(_TWO_PI_E * model.innovation_variance) - model.entropy_rate_bits()
    return BoundReport("spectral", float(p), None, szego - j_w)


def gw_lp_bound(model, p: float) -> BoundReport:
    """Asymptotic floor sqrt(2 pi e) / C_p * sqrt(GW * Var).

    GW is the Gaussianity-whiteness figure of the disturbance; the form
    makes explicit how whitening loss and non-Gaussianity shrink the floor
    relative to a white Gaussian disturbance of the same power.  The report
    carries h = 1/2 log2(2 pi e GW Var), whose 2^h / C_p is that floor.
    GW is defined from the entropy rate, so this route is the direct floor
    restated, not an independent check of it.
    """
    gw = _spectral.gaussianity_whiteness(model)
    h = 0.5 * math.log2(_TWO_PI_E * gw * model.variance())
    return BoundReport("gw", float(p), None, h)


def mimo_det_bound_at_step(model, k: int) -> BoundReport:
    """Determinant floor at step k for a vector model."""
    h = model.conditional_entropy_bits(k)
    return BoundReport("mimo_det", None, int(k), h, dimension=model.dim)


def mimo_det_bound_asymptotic(model) -> BoundReport:
    """Long-run determinant floor from a vector model's entropy rate."""
    h = model.entropy_rate_bits()
    return BoundReport("mimo_det", None, None, h, dimension=model.dim)
