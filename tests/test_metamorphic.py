"""Metamorphic scale relations: no verdict may depend on the disturbance's units.

Scale the disturbance by 2^j: a ``gauss_arma`` innovation variance and a
vector model's Q by 2^(2j), a GG ``mu`` by 2^j.  Every path then scales by
2^j exactly, and the loops of the zero and predictor laws with it.  So the
verdict columns (``violation``, ``whiteness_pass``, ``ggfit_pass``) are the
unit run's, ``gap_ratio`` agrees within 1e-12, and ``empirical`` and
``std_error`` are the unit run's times 2^j, or 2^(2 m j) for an m-channel
determinant row, within 1e-12.  A cell may instead raise the estimators' or
the floors' float64-range ValueError; ``OUT_OF_RANGE`` names each one.
``random`` is left out: its bias and gain cap do not scale.
"""

import math
from functools import lru_cache

import pytest

import entrolim as el
from entrolim.cli import config_from_dict

SCALES = (-300, -200, -40, 40, 200, 300)
HORIZON = 3_000
#: (model, j) of the cells that raise the float64-range ValueError: the vec
#: determinant floor 2^(2h) / (2 pi e)^2 under- or overflows at |j| = 300
OUT_OF_RANGE = {("vec", -300), ("vec", 300)}


def _configs(j: int):
    """The scalar grid (4 models x zero, predictor x p in {1, 2, inf}) and vec x
    predictor, with the disturbance scaled by 2^j."""
    gaussian = {"family": "gaussian", "variance": math.ldexp(1.0, 2 * j)}
    scalar = [
        {"kind": "gauss_arma", "ar": [0.9], "innovation": gaussian, "name": "ar1"},
        {"kind": "gauss_arma", "ar": [0.5, -0.3], "ma": [0.4], "innovation": gaussian, "name": "arma21"},
        {"kind": "iid", "innovation": {"family": "gg", "p": "inf", "mu": math.ldexp(1.0, j)}, "name": "unif"},
        {
            "kind": "gengauss_ar", "ar": [0.7],
            "innovation": {"family": "gg", "p": 1, "mu": math.ldexp(1.0, j)}, "name": "lapar",
        },
    ]
    q = [[math.ldexp(a, 2 * j) for a in row] for row in ((1.0, 0.2), (0.2, 0.5))]
    vec = {"kind": "vector_gauss_ar", "transition": [[0.5, 0.1], [0.0, 0.3]], "innovation_covariance": q, "name": "vec"}
    common = {"horizon": HORIZON, "seed": 3}
    return (
        config_from_dict({"models": scalar, "controllers": [{"kind": "zero"}, {"kind": "predictor"}],
                          "p_values": [1, 2, "inf"], **common}),
        config_from_dict({"models": [vec], "controllers": [{"kind": "predictor"}], **common}),
    )


@lru_cache(maxsize=None)
def _sweep(j: int):
    """{(model, controller, p): report} and {model: error message} over both grids."""
    rows, errors = {}, {}
    for config in _configs(j):
        result = el.sweep(config)
        rows.update({(row.model, row.controller, row.p): row.report for row in result.rows})
        errors.update({config.model_names[0]: message for _, message in result.errors})
    return rows, errors


def test_the_unit_grid_scores_every_cell():
    rows, errors = _sweep(0)
    assert errors == {} and len(rows) == 4 * 2 * 3 + 1
    # the certificates ran, so their verdicts are compared below
    assert all(report.tightness is not None for (model, _, _), report in rows.items() if model != "vec")


# the vec floor's 2.0 ** (2 h) overflows, with numpy's warning, before its ValueError
@pytest.mark.filterwarnings("ignore:overflow encountered in scalar power:RuntimeWarning")
@pytest.mark.parametrize("j", SCALES)
def test_scaling_the_disturbance_by_a_power_of_two_scales_every_row(j):
    unit, _ = _sweep(0)
    rows, errors = _sweep(j)
    refused = {model for model, scale in OUT_OF_RANGE if scale == j}
    assert set(errors) == refused
    assert all("out of the float64 range" in message for message in errors.values())
    assert set(rows) == {key for key in unit if key[0] not in refused}
    for key, report in rows.items():
        want = unit[key]
        shift = 2 * report.bound.dimension * j if key[0] == "vec" else j
        assert report.violation == want.violation, key
        if want.tightness is None:
            assert report.tightness is None, key
        else:
            assert report.tightness.whiteness_pass == want.tightness.whiteness_pass, key
            assert report.tightness.gg_fit_pass == want.tightness.gg_fit_pass, key
        assert report.gap_ratio == pytest.approx(want.gap_ratio, rel=1e-12), key
        assert report.empirical == pytest.approx(math.ldexp(want.empirical, shift), rel=1e-12), key
        assert report.std_error == pytest.approx(math.ldexp(want.std_error, shift), rel=1e-12), key
