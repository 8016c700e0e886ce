"""Impartial selection on nomination graphs.

Mechanisms that pick a highly nominated vertex without letting anyone
influence their own chance of winning, plus the tooling to prove it:
exact rational winner distributions, seeded Monte Carlo sweeps,
adversarial instance generators, and exhaustive verification engines.

The package exports every name in its modules' ``__all__`` lists.
"""

from . import core, exact, generators, mechanisms, montecarlo, verify
from .core import *  # noqa: F401,F403
from .exact import *  # noqa: F401,F403
from .generators import *  # noqa: F401,F403
from .mechanisms import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *(name for module in (core, mechanisms, exact, generators, montecarlo, verify) for name in module.__all__),
]
