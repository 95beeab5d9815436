"""wgtsim: decentralized gradient-tracking simulator with privacy diagnostics.

Simulates two gradient-tracking update laws over directed strongly
connected networks — a baseline whose tracker messages leak private
gradients to an eavesdropper, and a weighted variant whose vanishing
gradient-weight sequence makes the recoverable quantity decay to zero —
together with the attacker models, linear-system audits, and
convergence-theory monitors needed to measure both sides of that trade.
"""

from . import adversary, engine, errors, graph, monitor, objective, weights
from .adversary import *  # noqa: F403
from .engine import *  # noqa: F403
from .errors import *  # noqa: F403
from .graph import *  # noqa: F403
from .monitor import *  # noqa: F403
from .objective import *  # noqa: F403
from .weights import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name for module in (adversary, engine, errors, graph, monitor, objective, weights)
    for name in module.__all__
] + ["__version__"]
