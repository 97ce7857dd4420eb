"""Every entry point the benchmark tracer wraps still exists in the package.

``perfbench/tracing.py`` looks its entry points up by name when it installs
its wrappers, so a renamed or deleted function breaks ``perfbench/run.py
--trace 1``. The tracer is loaded here by path, as it stands.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


@pytest.mark.parametrize("span, module_name, attribute", _entry_points())
def test_tracer_entry_point_resolves(span, module_name, attribute):
    module = importlib.import_module(module_name)
    if "." in attribute:
        class_name, method = attribute.split(".")
        assert method in vars(getattr(module, class_name))
    else:
        assert callable(getattr(module, attribute))
