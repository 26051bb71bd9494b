"""smallcat: exhaustive computation with finite categories.

The package is organized around one substrate, :mod:`smallcat.fincat`
(categories with total composition tables), and builds set-valued diagrams,
Kan extensions, lifting-property tooling, involutive and semidirect-product
constructions, truncated (real) simplicial sets, arity-truncated cyclic
operads, and bounded chain-complex computations on top of it.

Importing the package loads none of its modules (``_MODULES``): each is
imported on first attribute access (PEP 562), and the command line
imports each in the command that uses it.

Code that few commands run lives in a module of its own, so that a
command compiles only what it can run.  Each old module, then those that
took its cold code: setval: coded, kan, universal; fincat: search,
standard; kan: certify; search: closure; catmodel: soa; chaincx: rings;
cycops: cycadj; semidirect: sdcheck; nabla: simplicial; catspec:
catwrite; cli: paper.  Each name keeps its old path: the old module's
``__getattr__``, made by :func:`moved`, imports the new module on first
access, so ``setval.lan is kan.lan``.  No module that loading a document
needs imports a moved name at module level.

A function that ``perfbench/spans.py`` times is called through the module
spans.py names for it (``fincat.opposite(C)``), also from the module it
moved to (``nabla.delta_leq`` in ``simplicial``): the tracer rebinds it
there, and a ``from`` alias or a bare name would hide the calls from it.
"""

import importlib

__version__ = "0.1.0"

_MODULES = tuple("""catmodel catspec catwrite certify chaincx cli closure
    coded cycadj cycops fincat invcat kan nabla paper rings sdcheck search
    semidirect setval simplicial soa standard universal""".split())


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def moved(namespace: dict, **homes: str):
    """A PEP 562 ``__getattr__`` for the module whose globals are
    ``namespace``: each of the whitespace-separated names given for a
    ``home`` is read from ``smallcat.<home>``, imported on first access,
    and kept in ``namespace``, so that later reads are plain lookups."""
    home_of = {name: home for home, names in homes.items()
               for name in names.split()}

    def __getattr__(name: str):
        home = home_of.get(name)
        if home is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no "
                                 f"attribute {name!r}")
        value = namespace[name] = getattr(
            importlib.import_module(f"{__name__}.{home}"), name)
        return value
    return __getattr__
