"""Entropy-based lower bounds on feedback error norms.

For any causal controller acting on a disturbance sequence, the error at
step k satisfies

    E[|e_k|^p]^(1/p)  >=  2^h / C_p,      h = h(d_k | d_0..d_{k-1}) bits,

with the constant C_p = 2 Gamma((p+1)/p) (p e)^(1/p) from the maximum
entropy property of the generalized Gaussian family (C_1 = 2e,
C_2 = sqrt(2 pi e), C_inf = 2, where p = inf reads the essential supremum).
No property of the controller enters: only the conditional entropy of the
disturbance.  Squaring the p = 2 case gives the variance bound; the
asymptotic bound replaces h with the entropy rate, which can equivalently
be assembled from the spectral integral minus the negentropy rate, or from
the Gaussianity-whiteness figure times the stationary variance.  For
vector errors the determinant of the second-moment matrix is bounded by
2^(2h) / (2 pi e)^m, and by Hadamard's inequality the product of the
per-channel second moments obeys the same floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from scipy import special

from . import spectral as _spectral

__all__ = [
    "lp_constant",
    "lp_bound",
    "variance_bound",
    "maxdev_bound",
    "mimo_det_bound",
    "lp_bound_at_step",
    "lp_bound_asymptotic",
    "spectral_lp_bound",
    "gw_lp_bound",
    "mimo_det_bound_at_step",
    "mimo_det_bound_asymptotic",
    "BoundReport",
]

_TWO_PI_E = 2.0 * math.pi * math.e


def lp_constant(p: float) -> float:
    """C_p = 2 Gamma((p+1)/p) (p e)^(1/p); C_inf = 2.  Requires p >= 1."""
    if not p >= 1.0:
        raise ValueError(f"p must be >= 1, got {p!r}")
    if math.isinf(p):
        return 2.0
    return 2.0 * special.gamma((p + 1.0) / p) * (p * math.e) ** (1.0 / p)


def lp_bound(h_bits: float, p: float) -> float:
    """Norm floor 2^h_bits / C_p for the L_p error norm."""
    return 2.0**h_bits / lp_constant(p)


def variance_bound(h_bits: float) -> float:
    """Second-moment floor 2^(2 h) / (2 pi e); the square of the p=2 bound."""
    return 2.0 ** (2.0 * h_bits) / _TWO_PI_E


def maxdev_bound(h_bits: float) -> float:
    """Essential-supremum floor 2^h / 2 (the p = inf case)."""
    return 2.0**h_bits / 2.0


def mimo_det_bound(h_bits: float, m: int) -> float:
    """Floor 2^(2 h) / (2 pi e)^m on det E[e_k e_k^T] for m-vector errors.

    The exponent on 2 is twice the conditional entropy: with m = 1 this
    reduces exactly to variance_bound.  Hadamard's inequality gives
    prod_i E[e_k(i)^2] >= det E[e_k e_k^T], so the product of per-channel
    second moments inherits this floor unchanged.
    """
    if m < 1:
        raise ValueError(f"dimension must be >= 1, got {m}")
    return 2.0 ** (2.0 * h_bits) / _TWO_PI_E**m


_SCALAR_FORMS = ("at_step", "asymptotic", "spectral", "gw")
_FORMS = _SCALAR_FORMS + ("mimo_det",)


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: which form, at what entropy, and its value.

    ``form`` is an L_p floor (``at_step``, ``asymptotic``, ``spectral`` or
    ``gw``; ``constant`` is C_p) or the determinant floor ``mimo_det``
    (``constant`` is (2 pi e)^m).  ``k`` is None for the asymptotic,
    spectral and GW forms.  Construction re-derives the value from (form,
    h_bits, constant) and refuses an inconsistent record.
    """

    form: str
    p: Optional[float]
    k: Optional[int]
    h_bits: float
    constant: float
    value: float
    dimension: int = 1

    def __post_init__(self):
        if self.form not in _FORMS:
            raise ValueError(f"unknown bound form {self.form!r}")
        expected = self._recompute()
        if not math.isclose(self.value, expected, rel_tol=1e-12, abs_tol=0.0):
            raise ValueError(
                f"inconsistent BoundReport: value {self.value!r} but form "
                f"{self.form!r} at h={self.h_bits!r} gives {expected!r}"
            )

    def _recompute(self) -> float:
        if self.form in _SCALAR_FORMS:
            return 2.0**self.h_bits / self.constant
        return 2.0 ** (2.0 * self.h_bits) / self.constant

    def to_json_dict(self) -> dict:
        return {
            "form": self.form,
            "p": _encode_p(self.p),
            "k_or_asymptotic": "asymptotic" if self.k is None else self.k,
            "h_bits": self.h_bits,
            "C_p": self.constant,
            "bound": self.value,
        }


def _encode_p(p: Optional[float]) -> Union[float, str, None]:
    if p is None:
        return None
    return "inf" if math.isinf(p) else p


def lp_bound_at_step(model, p: float, k: int) -> BoundReport:
    """Error-norm floor at step k from the model's conditional entropy."""
    h = model.conditional_entropy_bits(k)
    c = lp_constant(p)
    return BoundReport(
        form="at_step", p=float(p), k=int(k), h_bits=h, constant=c, value=2.0**h / c
    )


def lp_bound_asymptotic(model, p: float) -> BoundReport:
    """Long-run error-norm floor from the model's entropy rate."""
    h = model.entropy_rate_bits()
    c = lp_constant(p)
    return BoundReport(
        form="asymptotic", p=float(p), k=None, h_bits=h, constant=c, value=2.0**h / c
    )


def spectral_lp_bound(model, p: float) -> BoundReport:
    """Asymptotic floor assembled from the spectral integral minus J.

    value = 2^(-J) 2^(szego integral) / C_p.  Numerically identical to
    lp_bound_asymptotic up to quadrature tolerance for every model whose
    entropy rate is analytic; kept as an independent route for
    cross-checks.
    """
    szego = _spectral.szego_entropy_integral_bits(model.power_spectrum())
    j_rate = _spectral.negentropy_rate_bits(model)
    h = szego - j_rate
    c = lp_constant(p)
    return BoundReport(
        form="spectral", p=float(p), k=None, h_bits=h, constant=c, value=2.0**h / c
    )


def gw_lp_bound(model, p: float) -> BoundReport:
    """Asymptotic floor sqrt(2 pi e) / C_p * sqrt(GW * Var).

    GW is the Gaussianity-whiteness figure of the disturbance; the form
    makes explicit how whitening loss and non-Gaussianity shrink the floor
    relative to a white Gaussian disturbance of the same power.
    """
    gw = _spectral.gaussianity_whiteness(model)
    var = model.variance()
    value = math.sqrt(_TWO_PI_E) / lp_constant(p) * math.sqrt(gw * var)
    h = 0.5 * math.log2(_TWO_PI_E * gw * var)
    return BoundReport(
        form="gw", p=float(p), k=None, h_bits=h, constant=lp_constant(p), value=value
    )


def mimo_det_bound_at_step(model, k: int) -> BoundReport:
    """Determinant floor at step k for a vector model."""
    h = model.conditional_entropy_bits(k)
    m = model.dim
    return BoundReport(
        form="mimo_det",
        p=None,
        k=int(k),
        h_bits=h,
        constant=_TWO_PI_E**m,
        value=mimo_det_bound(h, m),
        dimension=m,
    )


def mimo_det_bound_asymptotic(model) -> BoundReport:
    h = model.entropy_rate_bits()
    m = model.dim
    return BoundReport(
        form="mimo_det",
        p=None,
        k=None,
        h_bits=h,
        constant=_TWO_PI_E**m,
        value=mimo_det_bound(h, m),
        dimension=m,
    )
