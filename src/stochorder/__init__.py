"""Verification toolkit for second-order stochastic dominance.

Exact order deciders with witnesses for finite laws, risk-measure envelopes,
dependence conditions on joint laws, Strassen-style coupling synthesis by
exact construction, and worked verification cases (dependence-region
tables, improvers, insurance marketability, protective puts).
"""

# the public names of each module are its __all__
from .apps import *  # noqa: F401,F403
from .conditions import *  # noqa: F401,F403
from .coupling import *  # noqa: F401,F403
from .dists import *  # noqa: F401,F403
from .orders import *  # noqa: F401,F403
from .risk import *  # noqa: F401,F403

__version__ = "0.1.0"
