"""smallcat: exhaustive computation with finite categories.

The package is organized around one substrate, :mod:`smallcat.fincat`
(categories with total composition tables), and builds set-valued diagrams,
Kan extensions, lifting-property tooling, involutive and semidirect-product
constructions, truncated (real) simplicial sets, arity-truncated cyclic
operads, and bounded chain-complex computations on top of it.

Importing the package loads none of its modules: ``smallcat.fincat`` and
the others are imported on first attribute access (PEP 562), and the
command line imports each module in the command that uses it.

Code that only some commands run lives in a module of its own, so that a
command compiles only what it can run: the Kan extensions and adjunction
certificates in ``kan`` (split from ``setval``), the cyclic right adjoint
and operad-map searches in ``cycadj`` (from ``cycops``), the functor
searches, equivalence tests and word closure in ``search`` (from
``fincat``), and the recorded paper cases in ``paper`` (from ``cli``).
Each name keeps its old path: the old module's ``__getattr__``, made by
:func:`moved`, imports the new module on first access and keeps the
attribute, so ``setval.lan is kan.lan``.

A function that ``perfbench/spans.py`` times is called from other modules
through the module spans.py names for it (``fincat.opposite(C)``), not
through a ``from`` import; for a moved function that is its old module
(``setval.validate_diagram`` from ``kan``, ``cycops.right_adjoint_R`` from
``cycadj``).  The tracer rebinds it on that module; a ``from`` alias taken
before the rebinding, as on-demand imports can make happen, would hide the
calls from it.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("catmodel", "catspec", "chaincx", "cycadj", "cycops", "fincat",
            "invcat", "kan", "nabla", "paper", "search", "semidirect",
            "setval")


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def moved(namespace: dict, module: str, names: str):
    """A PEP 562 ``__getattr__`` for the module whose globals are
    ``namespace``: each of the whitespace-separated ``names`` is read from
    ``smallcat.<module>``, imported on first access, and kept in
    ``namespace``, so that later reads are plain attribute lookups."""
    names = frozenset(names.split())

    def __getattr__(name: str):
        if name not in names:
            raise AttributeError(f"module {namespace['__name__']!r} has no "
                                 f"attribute {name!r}")
        value = namespace[name] = getattr(
            importlib.import_module(f"{__name__}.{module}"), name)
        return value
    return __getattr__
