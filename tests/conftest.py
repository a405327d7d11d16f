"""Import every ``ltenergy`` module before any test module is collected.

Hypothesis draws from a pool of constants that it reads from the local
modules loaded when it generates, so a property's derandomized examples
would otherwise depend on which test files ran before it.  The modules are
found with ``pkgutil``, so a new module joins the pool too.
"""

import importlib
import pkgutil

import ltenergy

for module in pkgutil.iter_modules(ltenergy.__path__, "ltenergy."):
    importlib.import_module(module.name)
