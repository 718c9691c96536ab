"""The benchmark's span tracer finds every function it wraps.

``perfbench/tracer.py`` replaces each ``WRAPS`` target at the module where its
caller looks it up. A target that no longer resolves is skipped there without
an error, so a rename or a dropped import would only show as a ``missing``
metric in a traced benchmark run. This reads the tracer's table and changes
nothing under ``perfbench/``.
"""

import importlib.util
import inspect
from importlib import import_module
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qhybrid"


def _wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.WRAPS


def test_every_wrap_target_resolves_to_a_package_callable():
    wraps = _wraps()
    assert wraps
    for module_name, attr, *_ in wraps:
        target = import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part, None)
            assert target is not None, f"{module_name}.{attr} does not resolve"
        assert callable(target), f"{module_name}.{attr} is not callable"
        source = Path(inspect.getsourcefile(target)).resolve()
        assert PACKAGE in source.parents, f"{module_name}.{attr} is defined in {source}"
