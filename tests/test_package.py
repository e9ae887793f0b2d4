"""The package surface: what ``import lomlab`` exports, and what it costs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import lomlab
import lomlab.survey as survey_module

SRC = Path(lomlab.__file__).resolve().parents[1]


def test_checkpoint_errors_exported():
    assert (lomlab.CheckpointMismatchError, lomlab.CorruptCheckpointError) == (
        survey_module.CheckpointMismatchError, survey_module.CorruptCheckpointError)


def test_import_fills_no_cache():
    # A fresh interpreter imports lomlab and then every module of it, and
    # reports the size of each lru_cache found among the modules' attributes,
    # so that a cache added later is covered too.  Importing does no work: a
    # cache filled at import would be paid by every CLI call and every
    # worker, used or not.
    script = """
import importlib, json, pkgutil, sys
import lomlab
for info in pkgutil.iter_modules(lomlab.__path__, "lomlab."):
    importlib.import_module(info.name)
sizes = {}
for name, module in sorted(sys.modules.items()):
    if name == "lomlab" or name.startswith("lomlab."):
        for value in vars(module).values():
            if callable(getattr(value, "cache_info", None)):
                sizes[f"{value.__module__}.{value.__qualname__}"] = value.cache_info().currsize
print(json.dumps(sizes))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    sizes = json.loads(proc.stdout)
    assert {
        "lomlab.sign_core._mask_context",
        "lomlab.sign_core._half_reorientation_masks",
        "lomlab.sign_core._run_plan",
        "lomlab.survey._quotient_generators",
        "lomlab.travels._plan",
    } <= set(sizes)
    assert {name: size for name, size in sizes.items() if size} == {}
