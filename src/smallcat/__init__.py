"""smallcat: exhaustive computation with finite categories, all on one
substrate, :mod:`smallcat.fincat` (categories as total tables).

Importing the package loads none of its modules (``_MODULES``): each is
imported on first attribute access (PEP 562), and the command line
imports each in the command that uses it.

Code that few commands run lives in a module of its own, so that a
command compiles only what it runs.  Each name has one home, the module
that defines it.  The 39 names that ``perfbench`` reads at a module they
have left (``setval.lan``, ``fincat.walking_arrow``, ...) are also read
there, through the ``__getattr__`` that :func:`moved` makes, which
imports the home module on first access.  No module that loading a
document needs imports one of them at module level.

A function that ``perfbench/spans.py`` times is called through the module
spans.py names for it (``fincat.opposite(C)``, ``setval.lan(iota, X)``),
also from the module that defines it (``cycops.right_adjoint_R`` in
``cycmaps``): the tracer rebinds it there, and a ``from`` alias or a bare
name would hide the calls from it.
"""

import importlib

__version__ = "0.1.0"

_MODULES = tuple("""catmodel catspec catwrite certify chaincx chainmaps cli
    closure coded commands cycadj cycmaps cycops equivalence fincat invcat
    involutive kan nabla paper presentations rings sdcheck search searchcore
    semidirect setval simplicial soa standard universal""".split())


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def moved(namespace: dict, **homes: str):
    """A PEP 562 ``__getattr__`` for the module whose globals are
    ``namespace``: each of the whitespace-separated names given for a
    ``home`` is read from the module ``home`` of its package, imported on
    first access, and kept in ``namespace``, so that later reads are plain
    lookups."""
    home_of = {name: home for home, names in homes.items()
               for name in names.split()}

    def __getattr__(name: str):
        home = home_of.get(name)
        if home is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no "
                                 f"attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(
            "." + home, namespace["__package__"]), name)
        return value
    return __getattr__
