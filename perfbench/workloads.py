"""The benchmark's workloads: inputs drawn from a seed, a timed pass, checks.

Each workload drives the public lomlab API the way a user (or ``lomlab``'s
CLI) does.  ``pass_steps`` is the timed body: one ``(label, call)`` per
library call of a pass, which run.py times one by one and whose output (or
exception) it keeps, and ``check`` turns each output into a list of problems
(empty means correct).  Work done outside the timed region (reference
surveys, rechecks by the chirotope engine) goes through ``prepare`` and
``post`` and is checked the same way.

``lomlab`` is imported inside the methods, so that the set-up probe can time
``import lomlab`` itself.
"""

from __future__ import annotations

import json
import os
import random
import time
import traceback
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Shapes:
    survey: tuple[int, int, int]      # surveyed in full by survey-serial and the pool
    survey_c: int                     # alternating f = c at the survey shape
    survey_c_source: str
    survey_maximizers: int | None     # non-alternating classes attaining c
    slice: tuple[int, int, int]       # surveyed as a chunk-aligned slice
    slice_size: int
    slice_c: int                      # every f in the slice is at most c
    fcount: tuple[tuple[int, int, int], ...]
    crosscheck: tuple[int, int, int]
    crosscheck_samples: int
    pool_threads: int = 2
    pool_chunk: int = 64
    rechecks: int = 3                 # classes per survey shape rechecked by chirotope


FULL = Shapes(
    survey=(8, 11, 2), survey_c=462, survey_c_source="computed", survey_maximizers=255,
    slice=(7, 11, 2), slice_size=8192, slice_c=112,
    fcount=((5, 17, 1), (7, 16, 2)),
    crosscheck=(7, 11, 2), crosscheck_samples=24,
)

# Every code path and check of FULL at shapes that run in well under a second.
QUICK = Shapes(
    survey=(4, 8, 1), survey_c=16, survey_c_source="closed_form", survey_maximizers=None,
    slice=(3, 5, 1), slice_size=2, slice_c=2,
    fcount=((4, 9, 1),),
    crosscheck=(4, 7, 1), crosscheck_samples=8,
)


class Failed:
    """An exception raised by a library call, kept as that call's output."""

    def __init__(self, exc: BaseException):
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        self.trace = traceback.format_exc(limit=4)


def attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # counted as a failed operation; the run goes on
        return Failed(exc)


def stable_json(result) -> str:
    """Survey result JSON as the CLI writes it, without elapsed_seconds."""
    payload = result.to_json_dict()
    payload.pop("elapsed_seconds")
    return json.dumps(payload, indent=2)


def survey_problems(res, classes: int, c: int, exact: bool, c_source=None,
                    maximizers=None, alternating=False) -> list[str]:
    """Self-checks every survey must pass, plus the expectations known for its shape."""
    problems = []
    total = sum(res.histogram.values())
    if total != classes or res.surveyed != classes:
        problems.append(f"histogram total {total}, surveyed {res.surveyed}, expected {classes}")
    odd = sorted(f for f in res.histogram if f % 2)
    if odd:
        problems.append(f"odd f values {odd}")
    if exact and res.max_f != c:
        problems.append(f"max_f {res.max_f} != c {c}")
    if not exact and res.max_f > c:
        problems.append(f"max_f {res.max_f} exceeds c {c}")
    if c_source is not None and (res.c.value, res.c.source) != (c, c_source):
        problems.append(f"c = {res.c.value} ({res.c.source}), expected {c} ({c_source})")
    if alternating and res.alternating_class_f != c:
        problems.append(f"alternating f {res.alternating_class_f} != c {c}")
    if maximizers is not None and res.maximizer_count_excluding_alternating != maximizers:
        problems.append(
            f"{res.maximizer_count_excluding_alternating} non-alternating maximizers, "
            f"expected {maximizers}"
        )
    return problems


class Workload:
    name = ""
    in_process = True  # False: the timed calls start worker processes
    speed_reference = "small"  # the speed.py reference most like this workload's work

    def __init__(self, seed: int, shapes: Shapes, workdir: Path):
        self.seed = seed
        self.shapes = shapes
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.classes_per_pass = 0

    def inputs(self) -> dict:
        raise NotImplementedError

    def warm(self) -> None:
        """The first-call work a fresh interpreter does before this workload's loop."""
        raise NotImplementedError

    def prepare(self) -> list[tuple[str, object]]:
        return []

    def pass_steps(self, p: int) -> list[tuple[str, object]]:
        """The timed calls of pass ``p``, as ``(label, zero-argument callable)``."""
        raise NotImplementedError

    def pass_key(self, p: int) -> int:
        """Passes with equal keys run identical inputs."""
        return 0

    def check(self, label: str, out) -> list[str]:
        raise NotImplementedError

    def post(self) -> list[tuple[str, object]]:
        return []

    def cleanup(self) -> None:
        pass

    def extra(self) -> dict:
        return {}


def _full_survey_problems(shapes: Shapes, res) -> list[str]:
    from lomlab import class_count

    return survey_problems(
        res, class_count(*shapes.survey[:2]), shapes.survey_c, exact=True,
        c_source=shapes.survey_c_source, maximizers=shapes.survey_maximizers,
        alternating=True,
    )


def _warm_survey(shape) -> None:
    import lomlab

    lomlab.run_survey(lomlab.SurveyConfig(*shape, index_range=(0, 1)))


class SurveySerial(Workload):
    name = "survey-serial"

    def __init__(self, seed, shapes, workdir):
        super().__init__(seed, shapes, workdir)
        from lomlab import class_count
        from lomlab.survey import DEFAULT_CHUNK_SIZE

        r, n, _ = shapes.slice
        size = shapes.slice_size
        align = min(DEFAULT_CHUNK_SIZE, size)
        self.lo = self.rng.randrange((class_count(r, n) - size) // align + 1) * align
        self.hi = self.lo + size
        self.classes_per_pass = class_count(*shapes.survey[:2]) + size
        self.rechecks = {
            "full": sorted(self.rng.sample(range(class_count(*shapes.survey[:2])), shapes.rechecks)),
            "slice": sorted(self.rng.sample(range(self.lo, self.hi), min(shapes.rechecks, size))),
        }

    def inputs(self) -> dict:
        return {
            "survey": list(self.shapes.survey),
            "slice": list(self.shapes.slice),
            "slice_range": [self.lo, self.hi],
            "recheck_indices": self.rechecks,
        }

    def warm(self) -> None:
        _warm_survey(self.shapes.survey)
        _warm_survey(self.shapes.slice)

    def pass_steps(self, p):
        from lomlab import SurveyConfig, run_survey

        return [
            ("full", lambda: run_survey(SurveyConfig(*self.shapes.survey))),
            ("slice", lambda: run_survey(
                SurveyConfig(*self.shapes.slice, index_range=(self.lo, self.hi)))),
        ]

    def check(self, label, res):
        if label == "full":
            return _full_survey_problems(self.shapes, res)
        if label == "slice":
            return survey_problems(
                res, self.hi - self.lo, self.shapes.slice_c, exact=False,
                alternating=self.lo == 0,
            )
        f_survey, f_chirotope = res
        return [] if f_survey == f_chirotope else [
            f"survey f {f_survey} != chirotope f {f_chirotope}"
        ]

    def post(self):
        """Recheck sampled classes with the chirotope engine, outside the timed region."""
        out = []
        for part, shape in (("full", self.shapes.survey), ("slice", self.shapes.slice)):
            for index in self.rechecks[part]:
                out.append((f"recheck {part} {index}", attempt(_recheck, shape, index)))
        return out


def _recheck(shape, index):
    import lomlab

    r, n, k = shape
    res = lomlab.run_survey(lomlab.SurveyConfig(r, n, k, index_range=(index, index + 1)))
    (f_survey,) = res.histogram
    table = lomlab.chirotope_from_matrix(lomlab.representative_of_index(r, n, index))
    return f_survey, lomlab.count_k_neighborly_reorientations_chirotope(table, k)


class SurveyPoolCheckpoint(Workload):
    name = "survey-pool-checkpoint"
    in_process = False

    def __init__(self, seed, shapes, workdir):
        super().__init__(seed, shapes, workdir)
        from lomlab import class_count

        self.classes_per_pass = class_count(*shapes.survey[:2])
        self.checkpoint = workdir / f"checkpoint-{os.getpid()}.json"
        self.reference = None
        self.reference_s = None

    def inputs(self) -> dict:
        return {
            "survey": list(self.shapes.survey),
            "threads": self.shapes.pool_threads,
            "chunk_size": self.shapes.pool_chunk,
        }

    def warm(self) -> None:
        _warm_survey(self.shapes.survey)

    def _config(self):
        from lomlab import SurveyConfig

        return SurveyConfig(
            *self.shapes.survey, threads=self.shapes.pool_threads,
            chunk_size=self.shapes.pool_chunk, checkpoint_path=self.checkpoint,
        )

    def prepare(self):
        """The serial survey of the same classes: the reference bytes and the
        base of survey.pool_speedup."""
        from lomlab import SurveyConfig, run_survey

        t0 = time.perf_counter()
        res = attempt(run_survey, SurveyConfig(*self.shapes.survey))
        self.reference_s = time.perf_counter() - t0
        if not isinstance(res, Failed):
            self.reference = stable_json(res)
        return [("serial reference", res)]

    def pass_steps(self, p):
        from lomlab import run_survey

        def first():
            self.checkpoint.unlink(missing_ok=True)
            return run_survey(self._config())

        return [("pool", first), ("resume", lambda: run_survey(self._config()))]

    def check(self, label, res):
        if label == "serial reference":
            return _full_survey_problems(self.shapes, res)
        if self.reference is None:
            return ["no serial reference to compare with"]
        if stable_json(res) != self.reference:
            return [f"{label} result JSON differs from the serial survey's"]
        return []

    def cleanup(self):
        self.checkpoint.unlink(missing_ok=True)
        self.checkpoint.with_name(self.checkpoint.name + ".tmp").unlink(missing_ok=True)

    def extra(self) -> dict:
        return {"serial_reference_s": self.reference_s}


class FcountLarge(Workload):
    name = "fcount-large"
    speed_reference = "large"

    def __init__(self, seed, shapes, workdir):
        super().__init__(seed, shapes, workdir)
        self.classes_per_pass = len(shapes.fcount)
        self.flips = []
        for r, n, _ in shapes.fcount:
            cols = sorted(c for c in range(1, n + 1) if self.rng.random() < 0.5)
            rows = sorted(i for i in range(1, r + 1) if self.rng.random() < 0.5)
            self.flips.append((cols, rows))

    def inputs(self) -> dict:
        return {
            "matrices": [
                {"rank": r, "elements": n, "k": k, "flip_cols": cols, "flip_rows": rows}
                for (r, n, k), (cols, rows) in zip(self.shapes.fcount, self.flips)
            ]
        }

    def warm(self) -> None:
        from lomlab import sign_core

        for r, n, _ in self.shapes.fcount:
            sign_core._mask_context(r, n)
            sign_core._half_reorientation_masks(n)

    def pass_steps(self, p):
        from lomlab import (
            alternating_matrix, count_k_neighborly_reorientations, reorient_columns,
            reorient_rows,
        )

        def fcount(r, n, k, cols, rows):
            A = reorient_rows(reorient_columns(alternating_matrix(r, n), cols), rows)
            return count_k_neighborly_reorientations(A, k)

        return [
            (f"fcount {r},{n},{k}", lambda r=r, n=n, k=k, f=f: fcount(r, n, k, *f))
            for (r, n, k), f in zip(self.shapes.fcount, self.flips)
        ]

    def check(self, label, f):
        from lomlab import c_closed_form

        r, n, k = (int(x) for x in label.split()[1].split(","))
        want = c_closed_form(r, n, k)
        return [] if f == want else [f"f = {f}, c_closed_form = {want}"]


class CrosscheckTravels(Workload):
    name = "crosscheck-travels"

    def __init__(self, seed, shapes, workdir):
        super().__init__(seed, shapes, workdir)
        self.classes_per_pass = shapes.crosscheck_samples
        self.sampled = {}

    # The travels engine's cost depends on the class, so each pass draws its
    # own sample and the run's median covers several samples.
    def sample_seed(self, p: int) -> int:
        return self.seed * 1000 + p

    def pass_key(self, p):
        return p

    def inputs(self) -> dict:
        return {
            "shape": list(self.shapes.crosscheck),
            "samples": self.shapes.crosscheck_samples,
            "sample_seeds": {str(p): self.sample_seed(p) for p in sorted(self.sampled)},
            "sampled_indices": {str(p): v for p, v in sorted(self.sampled.items())},
        }

    def warm(self) -> None:
        from lomlab import sign_core

        r, n, _ = self.shapes.crosscheck
        sign_core._mask_context(r, n)
        sign_core._half_reorientation_masks(n)

    def pass_steps(self, p):
        from lomlab import engine_crosscheck

        def crosscheck():
            report = engine_crosscheck(
                *self.shapes.crosscheck, self.shapes.crosscheck_samples, self.sample_seed(p),
            )
            self.sampled[p] = report.indices
            return report

        return [("crosscheck", crosscheck)]

    def check(self, label, report):
        problems = []
        if len(report.indices) != self.shapes.crosscheck_samples:
            problems.append(f"{len(report.indices)} classes checked")
        problems += [f"mismatch {m}" for m in report.mismatches]
        return problems


WORKLOADS = {
    cls.name: cls
    for cls in (SurveySerial, SurveyPoolCheckpoint, FcountLarge, CrosscheckTravels)
}
