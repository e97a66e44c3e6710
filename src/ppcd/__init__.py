"""p'-character-degree combinatorics with built-in verification oracles.

Partitions, hooks and e-cores; exact symmetric-group character degrees
with two independent p'-degree tests; the p'-hook counting formula
against two constructions of the set; quasihook families and the
extendable-degree lower bound for A_n; and the degree polynomials in q
used for the small Lie-type families, with their divisibility
contracts.  Each public name that no CLI path reaches, Macdonald's
p'-degree test among them, is the oracle or the subject of a named
check; ``NOT_ON_A_CLI_PATH`` in tests/test_api.py lists each with its
check.  The package exports each module's ``__all__`` by star import,
so that list is the one list of public names.
"""

from .ctbl import *  # noqa: F403
from .degrees import *  # noqa: F403
from .hooks import *  # noqa: F403
from .lie import *  # noqa: F403
from .partitions import *  # noqa: F403

__version__ = "0.1.0"
