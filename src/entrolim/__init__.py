"""Information-theoretic floors on feedback-loop error.

Any causal controller reacting to a random disturbance leaves a residual
error whose size is bounded below by the disturbance's conditional entropy;
this package computes those floors analytically for a family of disturbance
models, simulates closed loops against them, and verifies both the bounds
and their tightness conditions empirically.

Layout:
    distributions   generalized Gaussian family and Gaussian vectors
    processes       disturbance models with analytic entropy schedules
    config          the JSON experiment config, read and checked in one place
    spectral        Szego integral, negentropy rate, Gaussianity-whiteness
    bounds          the floors themselves (L_p and MIMO determinant)
    simulator       causal controllers, closed loops, causality audits
    estimators      entropy / MI / whiteness estimation from samples
    verify          Monte Carlo confrontation of bound vs simulation
    cli             the ``entrolim`` command-line tool
"""

# Each library module's __all__ is the one list of its public names; the
# package republishes them (``cli``, the command-line tool, stays apart).
from . import distributions, processes, config, spectral, bounds, simulator, estimators, verify
from .distributions import *  # noqa: F401,F403
from .processes import *  # noqa: F401,F403
from .config import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403
from .bounds import *  # noqa: F401,F403
from .simulator import *  # noqa: F401,F403
from .estimators import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *distributions.__all__,
    *processes.__all__,
    *config.__all__,
    *spectral.__all__,
    *bounds.__all__,
    *simulator.__all__,
    *estimators.__all__,
    *verify.__all__,
    "__version__",
]
