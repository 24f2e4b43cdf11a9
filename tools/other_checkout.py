"""Import another checkout's `asadeval` beside this one, for the parity checks in this directory."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path


def load_other(src: Path, *names: str) -> tuple:
    """The `asadeval` in ``src``, imported as the package ``asadeval_other``, then its submodules ``names``."""
    package = src / "asadeval"
    spec = importlib.util.spec_from_file_location(
        "asadeval_other", package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["asadeval_other"] = module
    spec.loader.exec_module(module)
    return (module, *(importlib.import_module(f"asadeval_other.{name}") for name in names))
