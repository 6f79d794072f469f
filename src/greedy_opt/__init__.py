"""Greedy dictionary expansions for smooth convex minimization.

Builds m-sparse approximate minimizers G_m = sum_j c_j phi_j of a smooth convex
function over the span of a symmetric dictionary, one atom per iteration, and
ships the diagnostics needed to verify the schemes' convergence and decay-rate
guarantees numerically.

The package root re-exports the ``__all__`` of the six library modules below,
which is the one list of what each makes public.  ``cli``, ``instances`` and
``verification`` are used as modules (``from greedy_opt import cli``).
"""

from .core import *  # noqa: F401,F403
from .dictionaries import *  # noqa: F401,F403
from .diagnostics import *  # noqa: F401,F403
from .greedy import *  # noqa: F401,F403
from .objectives import *  # noqa: F401,F403
from .traceio import *  # noqa: F401,F403

__version__ = "0.1.0"
