"""Exact computation, search and certification of maximisers of
symmetrisable graph parameters, built around the inducibility problem for
complete partite graphs.

The submodules are registered, not run: each is in ``sys.modules`` and on
the package as a lazy module, compiled and executed on the first read of
one of its attributes (the lazy-import recipe of the ``importlib`` docs).
So a command pays only for the modules it uses. ``cli`` is the entry point
and is imported as usual.
"""

import importlib.util
import sys

__version__ = "0.1.0"

SUBMODULES = ("certificates", "graphs", "intervals", "matrices", "objectives", "optsearch",
              "partite", "perturbation", "polynomials", "strictness", "symmetrise")

for _name in SUBMODULES:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_name] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _name, _spec
