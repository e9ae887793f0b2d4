"""The library API that the benchmark's workloads read, checked with the
library's own tests: each workload of perfbench/workloads.py runs one pass at
its quick shapes and passes its own checks.  perfbench/test_perfbench.py runs
the whole benchmark; this catches a renamed function or report field sooner.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # registered before it runs: its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_checks(name, tmp_path):
    wl = workloads.WORKLOADS[name](0, workloads.QUICK, tmp_path)
    try:
        outputs = wl.prepare()
        outputs += [(label, workloads.attempt(call)) for label, call in wl.pass_steps(0)]
        outputs += wl.post()
    finally:
        wl.cleanup()
    problems = {
        label: out.text if isinstance(out, workloads.Failed) else wl.check(label, out)
        for label, out in outputs
    }
    assert outputs and {label: p for label, p in problems.items() if p} == {}
