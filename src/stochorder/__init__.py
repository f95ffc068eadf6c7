"""Verification toolkit for second-order stochastic dominance.

Exact order deciders with witnesses for finite laws, risk-measure envelopes,
dependence conditions on joint laws, Strassen-style coupling synthesis by
exact construction, and worked verification cases (dependence-region
tables, improvers, insurance marketability, protective puts).

The namespace is lazy (PEP 562): `import stochorder` loads no submodule.
`stochorder.risk`, or `from stochorder import risk`, loads that module and
what it imports, and nothing else; so does `cli`. The first public name
asked for, or `__all__` (so `from stochorder import *`), or `dir(stochorder)`
loads all seven library modules and binds their public names here: the union
of their `__all__` lists. So a command-line process loads only the modules
its subcommand runs.  A submodule missing from _MODULES would load all seven
on `from . import <it>`, which asks __getattr__ for it as a public name.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULES = ("apps", "conditions", "coupling", "dists", "models", "orders", "risk")


def _load_all() -> None:
    """Bind the public names of every module here; each module's are its __all__."""
    names = globals()
    if "__all__" in names:
        return
    public = []
    for module in (import_module(f".{m}", __name__) for m in _MODULES):
        names.update((name, getattr(module, name)) for name in module.__all__)
        public += module.__all__
    names["__all__"] = public


def __getattr__(name: str):
    # a submodule's own name must load that module alone: `from . import risk`
    # asks for it here before it imports anything
    if name in _MODULES or name == "cli":
        return import_module(f".{name}", __name__)
    if name == "__all__" or not name.startswith("_"):
        _load_all()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    _load_all()
    return sorted(globals())
