"""Rates and outer bounds for the half-duplex diamond relay channel.

A source talks to a destination through two half-duplex relays; there is no
direct source-destination link and no relay-relay link. This package computes
the rate of the alternating (successive) relaying schedule, solves the
half-duplex cut-set bound as a small linear program, and checks the algebraic
condition under which the two coincide so the capacity of an instance is known
exactly.
"""

from . import channel_model, cutset_lp, errors, experiments, optimality, sr_rate
from .channel_model import *  # noqa: F403
from .cutset_lp import *  # noqa: F403
from .errors import *  # noqa: F403
from .experiments import *  # noqa: F403
from .optimality import *  # noqa: F403
from .sr_rate import *  # noqa: F403

__version__ = "0.1.0"

# each module's __all__ is its public list; the package exports their union
__all__ = [
    name
    for module in (channel_model, cutset_lp, errors, experiments, optimality, sr_rate)
    for name in module.__all__
] + ["__version__"]
