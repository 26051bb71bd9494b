"""smallcat: exhaustive computation with finite categories.

The package is organized around one substrate, :mod:`smallcat.fincat`
(categories with total composition tables), and builds set-valued diagrams,
Kan extensions, lifting-property tooling, involutive and semidirect-product
constructions, truncated (real) simplicial sets, arity-truncated cyclic
operads, and bounded chain-complex computations on top of it.

Importing the package loads none of its modules: ``smallcat.fincat`` and
the others are imported on first attribute access (PEP 562), and the
command line imports each module in the command that uses it.

A function that ``perfbench/spans.py`` times is called from other modules
through its own module (``fincat.opposite(C)``), not through a ``from``
import.  The tracer rebinds it on that module; a ``from`` alias taken
before the rebinding, as on-demand imports can make happen, would hide the
calls from it.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("catmodel", "catspec", "chaincx", "cycops", "fincat", "invcat",
            "nabla", "semidirect", "setval")


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

