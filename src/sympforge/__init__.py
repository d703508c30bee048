"""sympforge: integral symplectic lattice algebra, modified Siegel groups,
tamings and period matrices, polarized self-duality, timelike reduction to
polarized Bogomolny equations, and explicit quantized dyons."""

import importlib.util
import sys

__version__ = "0.1.0"


def lazy(*names):
    """The named modules, each put in sys.modules now and run on its first attribute access."""
    for name in set(names) - set(sys.modules):
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        if "." in name:  # set on the package as an import would, for `from . import name`
            setattr(sys.modules[spec.parent], name.rpartition(".")[2], module)
    return [sys.modules[name] for name in names]
