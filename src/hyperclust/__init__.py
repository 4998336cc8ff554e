"""Community recovery on symmetric uniform hypergraphs.

The package samples planted-partition hypergraphs, scores node/cluster
affinities by sparse multilinear contractions, projects score matrices
exactly onto balanced assignments, and iterates the two to recover the
planted communities.  Experiment drivers reproduce phase-transition,
convergence, timing, and voting-record studies as CSV artifacts.

The public names are each module's own ``__all__``.
"""

from . import core, initializers, metrics, projection, sampler, solver
from .core import *  # noqa: F403
from .initializers import *  # noqa: F403
from .metrics import *  # noqa: F403
from .projection import *  # noqa: F403
from .sampler import *  # noqa: F403
from .solver import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    *initializers.__all__,
    *metrics.__all__,
    *projection.__all__,
    *sampler.__all__,
    *solver.__all__,
    "__version__",
]
