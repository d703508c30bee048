"""Every exception class of the library, pinned.

A library refusal is a plain ValueError that carries its message; a class
of its own is kept only where code outside the tests names it.  Two do:
the benchmark counts BoundTooLargeForBudget as the refusal of a conjugacy
search, and the CLI silences NonIntegerVWarning.  A new class has to be
added here, in a diff that is read like any other.
"""

import importlib
import inspect
import pathlib
import re

import sympforge
from sympforge import monodromy

SRC = pathlib.Path(sympforge.__file__).parent


def test_exception_classes_match_the_allowlist():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"sympforge.{path.stem}")
        found |= {f"{path.stem}.{name}" for name, obj in vars(module).items()
                  if inspect.isclass(obj) and issubclass(obj, BaseException)
                  and obj.__module__ == module.__name__}
    assert found == {"monodromy.BoundTooLargeForBudget", "dyons.NonIntegerVWarning"}
    assert issubclass(monodromy.BoundTooLargeForBudget, ValueError)


def test_no_runtime_error_is_raised():
    for path in sorted(SRC.glob("*.py")):
        assert not re.search(r"raise RuntimeError\b", path.read_text()), path.name
