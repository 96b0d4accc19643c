"""The program names the benchmark harness resolves must exist.

``perfbench/tracer.py`` wraps every name in its ``TRACED`` table when a
traced run starts, and the workloads read a few more attributes; deleting
any of them from ``trajdiff`` would break every benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves():
    tracer = _tracer()
    missing = [f"{short}.{attr}"
               for short, attrs in tracer.TRACED.items()
               for attr in attrs
               if not hasattr(importlib.import_module(f"trajdiff.{short}"),
                              attr)]
    assert missing == []
    assert callable(importlib.import_module("trajdiff.autodiff").Adam.step)


def test_workload_hooks_exist():
    for short, attr in (("evaluate", "ADHERENCE_THRESHOLD"),
                        ("data", "is_test_id"),
                        ("diffusion", "predict_best_of")):
        assert hasattr(importlib.import_module(f"trajdiff.{short}"), attr)
