"""Every function the benchmark's layer tracer wraps must still exist.

benchmark/tracer.py names its targets by module and attribute and raises
KeyError at install when one is gone; this reads its SPANS table (without
installing anything) so a rename shows up in the ordinary test run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"


def _spans():
    spec = importlib.util.spec_from_file_location("_benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.SPANS


def test_every_span_target_resolves():
    for span in _spans():
        owner = importlib.import_module(span.module)
        if span.cls is not None:
            owner = vars(owner)[span.cls]
        assert callable(vars(owner).get(span.attr)), (span.module, span.cls, span.attr)


def test_index_reexports_the_certify_boundary_pass():
    from vfblock import certify, index
    assert index.min_norm_on_boundary is certify.min_norm_on_boundary
    assert index.winding_stats is certify.winding_stats
