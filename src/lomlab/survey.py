"""Exhaustive per-class surveys of reorientation counts.

A survey walks every chessboard class index at a given rank and element
count, evaluates the k-neighborly reorientation count of the canonical
representative with the selected engine, and aggregates a histogram plus
maximizer statistics.  Results are deterministic: independent of worker
count, chunk size, and checkpoint/resume history.  Batches of contiguous
classes are absorbed in order, also from a pool, and long runs checkpoint
after each one the cursor below which every class is counted (atomic write,
refuse to resume on metadata mismatch).  The circuits engine counts a
survey with a violation table: one, built in the calling process before any
worker starts and shared by forked pool workers, or, when the pool starts
its workers by spawn or forkserver, one built in each worker.  Its survey
of the whole class space counts one class in 16: four column colorings
leave f unchanged, and it counts the one class of each of their cosets
whose index has bits 0, 1, B-2 and B-1 clear, B the number of index bits.
On the six shapes where those colorings are not independent on these bits,
each of at most 16 classes, it counts every class, as a range survey does.
``_counted`` says which classes a survey counts, and ``_run_chunk``, the
one loop that counts a chunk with either engine, with or without a table,
credits each count to the classes it stands for.

``verify_case`` wraps the survey presets whose expected maximizer counts are
known, reporting one pass/fail line per assertion.  ``engine_crosscheck``
and ``minor_recursion_check`` are sampled consistency sweeps through one
loop, ``_sweep``: the former compares the circuits and travels engines class
by class, the latter checks f(M) <= f(M/e) + f(M\\e) at every element e.
Each report prints its own lines.
"""

from __future__ import annotations

import json
import multiprocessing
import operator
import os
import random
import re
import sys
import time
from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import formulas, sign_core, travels
from .chessboard import (
    ENCODING_VERSION,
    _representative_entries,
    class_count,
    relevant_squares,
    representative_entries,
    representative_of_index,
)
from .formulas import CValue

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "SurveyConfig",
    "SurveyResult",
    "Checkpoint",
    "CheckpointMismatchError",
    "CorruptCheckpointError",
    "run_survey",
    "PRESETS",
    "verify_case",
    "engine_crosscheck",
    "minor_recursion_check",
]

DEFAULT_CHUNK_SIZE = 4096
ENGINES = ("circuits", "travels")
# Largest violation table a survey builds; bigger shapes count class by class.
TABLE_MAX_BYTES = 256 << 20
# About the most batches, and so checkpoint writes, that a survey makes.
_MAX_BATCHES = 4096


class CheckpointMismatchError(RuntimeError):
    """Raised when a checkpoint was written for a different survey setup."""


class CorruptCheckpointError(RuntimeError):
    """Raised when a checkpoint file is unreadable or contradicts itself."""


# ---------------------------------------------------------------------------
# configuration and results
# ---------------------------------------------------------------------------

def _check_class_space(r: int, n: int, k: int, engine: str) -> None:
    """Refuse, naming the value, a class space that ``engine`` cannot count:
    it needs rank >= 2, r+1 <= n <= the engine's limit and k >= 0."""
    if r < 2:
        raise ValueError(f"need rank >= 2, got rank {r}")
    if n < r + 1:
        raise ValueError(f"need n >= r+1, got r={r}, n={n}")
    sign_core._require_k(k)
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}, expected one of {ENGINES}")
    limit = sign_core.MAX_EXHAUSTIVE_ELEMENTS if engine == "circuits" else travels.MAX_MASK_ELEMENTS
    if n > limit:
        raise ValueError(f"the {engine} engine counts at most n={limit} elements, got n={n}")


@dataclass(frozen=True)
class SurveyConfig:
    rank: int
    elements: int
    k: int
    engine: str = "circuits"
    threads: int = 1
    chunk_size: int = DEFAULT_CHUNK_SIZE
    checkpoint_path: str | Path | None = None
    index_range: tuple[int, int] | None = None

    def __post_init__(self):
        # first, so that a float is refused here, named, and not in run_survey,
        # and a numpy integer is kept as an int, which json can write
        for name in ("rank", "elements", "k", "threads", "chunk_size"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {name}={value!r}") from None
        if self.index_range is not None:
            try:
                lo, hi = map(operator.index, self.index_range)
            except (TypeError, ValueError):
                raise ValueError(
                    f"index_range must be two integers, got index_range={self.index_range!r}"
                ) from None
            object.__setattr__(self, "index_range", (lo, hi))
        _check_class_space(self.rank, self.elements, self.k, self.engine)
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk size must be >= 1, got {self.chunk_size}")
        if self.index_range is not None:
            lo, hi = self.index_range
            total = class_count(self.rank, self.elements)
            if not (0 <= lo <= hi <= total):
                raise ValueError(
                    f"index range [{lo},{hi}) outside 0..{total}"
                )
            if lo == hi:
                raise ValueError(f"index range [{lo},{hi}) holds no class")

    def bounds(self) -> tuple[int, int]:
        if self.index_range is not None:
            return self.index_range
        return 0, class_count(self.rank, self.elements)


@dataclass
class SurveyResult:
    rank: int
    elements: int
    k: int
    engine: str
    class_count: int
    surveyed: int
    c: CValue
    max_f: int
    maximizer_count_total: int
    maximizer_count_excluding_alternating: int
    alternating_class_f: int | None
    histogram: dict[int, int]
    elapsed_seconds: float
    encoding_version: str = ENCODING_VERSION
    index_range: tuple[int, int] | None = None

    def to_json_dict(self) -> dict:
        out = {
            "rank": self.rank,
            "elements": self.elements,
            "k": self.k,
            "engine": self.engine,
            "class_count": self.class_count,
            "c_value": self.c.value,
            "c_source": self.c.source,
            "max_f": self.max_f,
            "maximizer_count_total": self.maximizer_count_total,
            "maximizer_count_excluding_alternating": self.maximizer_count_excluding_alternating,
            "alternating_class_f": self.alternating_class_f,
            "histogram": [
                {"f": f, "classes": c} for f, c in sorted(self.histogram.items())
            ],
            "elapsed_seconds": self.elapsed_seconds,
            "encoding_version": self.encoding_version,
        }
        if self.index_range is not None:
            out["range"] = list(self.index_range)
        return out


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    """The classes of the range below ``next_index`` are counted, with this histogram."""

    meta: dict
    next_index: int
    partial_histogram: Counter
    alternating_class_f: int | None

    def to_json_dict(self) -> dict:
        return {
            "meta": self.meta,
            "next_index": self.next_index,
            "partial_histogram": {
                str(f): c for f, c in sorted(self.partial_histogram.items())
            },
            "alternating_class_f": self.alternating_class_f,
        }


def _checkpoint_meta(cfg: SurveyConfig) -> dict:
    """The survey a checkpoint belongs to; its range is the classes counted."""
    quotient, _, lo, hi = _counted(cfg)
    meta = {
        "rank": cfg.rank,
        "elements": cfg.elements,
        "k": cfg.k,
        "engine": cfg.engine,
        "encoding_version": ENCODING_VERSION,
        "range": [lo, hi],
    }
    if quotient > 1:
        meta["quotient"] = quotient
    return meta


def _temporary(path: Path) -> Path:
    return path.with_name(path.name + ".tmp")


def _check_writable(path: str | Path, prefix: str) -> None:
    """Refuse, as ``prefix: problem``, a path that ``_write_atomically`` cannot write:
    a directory, a path whose parent is not a directory, or one whose temporary
    file is a directory."""
    path = Path(path)
    if path.is_dir():
        raise ValueError(f"{prefix}: it is a directory")
    if not path.parent.is_dir():
        raise ValueError(f"{prefix}: {path.parent} is not a directory")
    tmp = _temporary(path)
    if tmp.is_dir():
        raise ValueError(f"{prefix}: its temporary file {tmp} is a directory")


def _write_atomically(path: str | Path, text: str) -> None:
    """Write to a temp file in the same directory, sync it, then rename it over ``path``."""
    path = Path(path)
    tmp = _temporary(path)
    with open(tmp, "w") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _histogram_checks(histogram: dict[int, int], classes: int) -> list[tuple[str, bool, str]]:
    """The self-checks of a histogram of ``classes`` classes, as (label, passed,
    detail): it totals them, and every f is even."""
    surveyed = sum(histogram.values())
    odd = sorted(f for f in histogram if f % 2)
    return [
        ("histogram-total", surveyed == classes, f"{surveyed} classes surveyed of {classes}"),
        ("histogram-parity", not odd, f"odd f values {odd}" if odd else "all f values even"),
    ]


def _failed(checks: list[tuple[str, bool, str]]) -> str:
    """The checks that failed, as "label: detail" joined by "; ", or "" if none did."""
    return "; ".join(f"{label}: {detail}" for label, ok, detail in checks if not ok)


def save_checkpoint(path: str | Path, cp: Checkpoint) -> None:
    _write_atomically(path, json.dumps(cp.to_json_dict(), separators=(",", ":")) + "\n")


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint and check it against its own metadata.

    Raises CorruptCheckpointError, naming the file, when the file is not a
    checkpoint with a class cursor (one with chunk ids is refused), holds a
    cursor that is not an integer of its range or its end, a histogram
    entry that is not a count >= 1 of an integer f, or an alternating f
    that is not an integer, holds a histogram of the classes below its
    cursor that fails ``_histogram_checks``, or holds an alternating f when
    class 0 is not counted, or lacks one when it is.
    """
    try:
        data = json.loads(Path(path).read_text())
        meta, cursor = data["meta"], data["next_index"]
        counts = data["partial_histogram"].items()
        alternating = data["alternating_class_f"]
        lo, hi = meta["range"]
        cursors = range(lo, hi + 1)  # a TypeError unless both ends are integers
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CorruptCheckpointError(
            f"checkpoint {path} is not a survey checkpoint: {type(exc).__name__}: {exc}"
        ) from None

    def corrupt(problem: str) -> CorruptCheckpointError:
        return CorruptCheckpointError(f"checkpoint {path} is inconsistent: {problem}")

    # json gives 1.0 and true, which equal 1
    if type(cursor) is not int or cursor not in cursors:
        raise corrupt(f"next_index {cursor!r} is not an integer in [{lo},{hi}]")
    # json gives 4.9, true and "02" where int() would read 4, 1 and 2
    bad = {
        f: c for f, c in counts
        if type(c) is not int or c < 1 or not re.fullmatch("0|[1-9][0-9]*", f)
    }
    if bad:
        raise corrupt(f"histogram entries {bad} are not counts >= 1 of integer f values")
    if alternating is not None and type(alternating) is not int:
        raise corrupt(f"alternating_class_f {alternating!r} is not an integer")
    histogram = Counter({int(f): c for f, c in counts})
    failed = _failed(_histogram_checks(histogram, cursor - lo))
    if failed:
        raise corrupt(f"its histogram of the classes [{lo},{cursor}) fails {failed}")
    holds_zero = lo == 0 < cursor
    if (alternating is not None) != holds_zero:
        raise corrupt(
            f"alternating_class_f is {alternating}, but class 0 is "
            f"{'counted' if holds_zero else 'not counted'}"
        )
    return Checkpoint(meta, cursor, histogram, alternating)


# ---------------------------------------------------------------------------
# chunk evaluation (also run inside worker processes)
# ---------------------------------------------------------------------------

def _survey_table(cfg: SurveyConfig, classes: int) -> np.ndarray | None:
    """The violation table that counts a survey of ``classes`` classes, or None.

    The circuits engine counts with a table when the survey has at least 2^r
    classes, so that building the table pays for itself, and the table fits
    TABLE_MAX_BYTES.  None means count class by class.
    """
    r, n = cfg.rank, cfg.elements
    if (
        cfg.engine == "circuits"
        and classes >= 1 << r
        and sign_core.violation_table_nbytes(r, n) <= TABLE_MAX_BYTES
    ):
        return sign_core.violation_table(r, n, cfg.k)
    return None


def _run_chunk(
    cfg: SurveyConfig, table: np.ndarray | None, lo: int, hi: int
) -> tuple[Counter, int | None]:
    """Histogram of the f credited to the classes [lo, hi), and f of class 0
    if it is among them.

    Class i is credited with f(i & ~(2^L - 1)), L the low bits ``_counted``
    names; this is the one place that takes the credit.  Each call counts the
    classes with the low L bits clear in aligned runs of 2^width classes: with
    a table from ``_survey_table``, ``violation_block_size`` runs of the width
    ``_run_width`` picks, in one ``violation_counts`` call; without one, one
    run of width L, its first class counted by the survey's engine.  Every
    count is credited to its class and the 2^L - 1 after it, and the runs cut
    by lo or hi are trimmed to the range.
    """
    r, n = cfg.rank, cfg.elements
    low = _counted(cfg)[1]
    if table is None:
        width, step = low, 1 << low
    else:
        width = sign_core._run_width(r, n, hi - lo, low)
        step = sign_core.violation_block_size(table, width, low) << width
    hist = Counter()
    alternating_f = None
    for start in range(lo >> width << width, hi, step):
        if table is not None:
            firsts = np.arange(start, min(hi, start + step), 1 << width)
            fs = sign_core.violation_counts(table, representative_entries(r, n, firsts), width, low)
        elif cfg.engine == "circuits":
            entries = _representative_entries(r, n, start)
            fs = np.array([sign_core._count_entries(entries, cfg.k)])
        else:
            A = representative_of_index(r, n, start)
            fs = np.array([travels.f_via_travels(A, cfg.k)])
        fs = fs.repeat(1 << low)[max(0, lo - start) : hi - start]
        values, counts = np.unique(fs, return_counts=True)
        for f, count in zip(values.tolist(), counts.tolist()):
            hist[f] += count
        if start == lo == 0:
            alternating_f = int(fs[0])
    return hist, alternating_f


# Set in each pool worker by _init_worker: the table it is handed, else the
# one _survey_table picks for the class count.  Forked workers share the
# parent's table copy-on-write.  Under spawn or forkserver the parent builds
# none, since a table pickled into every worker costs more than a build.
_WORKER_STATE: tuple[SurveyConfig, np.ndarray | None] | None = None


def _init_worker(cfg: SurveyConfig, table: np.ndarray | None, classes: int) -> None:
    global _WORKER_STATE
    if table is None:
        table = _survey_table(cfg, classes)
    _WORKER_STATE = cfg, table


def _worker_chunk(job: tuple[int, int]) -> tuple[int, int, dict, int | None]:
    hist, alt = _run_chunk(*_WORKER_STATE, *job)
    return *job, dict(hist), alt


# ---------------------------------------------------------------------------
# the survey driver
# ---------------------------------------------------------------------------

# Column j's coloring cj is the class index with every relevant square (i, j)
# black.  In a space of 2^B classes, w = n-r-1 the length of chessboard row
# 1, four colorings leave f unchanged: c2, c3, c(n-3) and c(n-2).
#
# c(n-2) is square (r-1, n-2), the top index bit B-1.  Flipping it negates
# a[r][n-1] and a[r][n].  Row r enters a basis sign only at the basis's
# largest element, so the flip negates exactly the bases that meet {n-1, n}.
# Relabeling by the transposition (n-1 n) maps a basis meeting one of the two
# to the one meeting the other, whose sign differs by a[r][n-1] a[r][n], and
# negates a basis holding both.  So the flipped chirotope is the relabeled
# one up to a reorientation of a subset of {n-1, n} and a global sign, and f,
# which no relabeling or reorientation changes, is the same.  c2, square
# (1,2) and bit 0, is its mirror, the transposition (1 2); the first-row
# runs of ``sign_core`` use it.
#
# c3 is squares (1,3) and (2,3), bits 1 and w (only (1,3) at r = 2).
# Flipping them negates row 2 from column 4 on; up to negating all of row 2,
# which negates every basis, that negates a[2][2] and a[2][3], as a[2][1]
# enters no basis.  Row 2 enters a basis sign at the basis's second element,
# so the flip negates exactly the bases that meet {1, 2, 3} in two or three
# elements.  Row 1 of the canonical matrix is all +1, so a basis that meets
# {1, 2, 3} once keeps its sign when 1, 2 and 3 are relabeled, and square
# (1,2) is black exactly when a[2][2] a[2][3] = -1.  A transposition of two
# of 1, 2, 3 negates the bases holding both, by one inversion, and swaps the
# two other pairs of {1, 2, 3}: (2 3) swaps {1, 2} and {1, 3}, whose signs
# differ by a[2][2] a[2][3], and (1 3) swaps {1, 2} and {2, 3}, whose signs
# differ by that and an inversion.  So c3 is the relabeling (2 3) when square
# (1,2) is black and (1 3) when it is white, up to a global sign.  Its mirror
# c(n-3), squares (r-2, n-3) and (r-1, n-3) and bits B-1-w and B-2 (only
# (1, n-3) at r = 2), is (n-2 n-1) when square (r-1, n-2) is black and
# (n-2 n) when it is white, once columns n-2, n-1 and n are reoriented to
# make row r +1 there, which changes no square.  The relabeling depends on
# the class, but f needs only some isomorphism for each class:
# f(i) = f(i ^ c3) = f(i ^ c(n-3)).
#
# At w = 1, n = r+2, squares (1,3) and (r-1, n-3) are not relevant: they
# touch no basis product, so c3 is square (2,3) alone and c(n-3) is square
# (r-2, r-1) alone, and the argument, which reads only the relevant squares
# (1,2) and (r-1, n-2) besides them, holds there too.
#
# So f is constant on each coset of the group the four colorings span.  When
# they are independent on the pivot bits 0, 1, B-2 and B-1, each coset holds
# one class with every pivot bit clear, and the histogram of the space is 16
# times that of those classes.  A survey counts them in the prefix [0, N/4),
# bits B-2 and B-1 clear: it credits class i with f(i & ~3) and takes the
# histogram 4 times.  The credit is exact over the prefix, though not chunk
# by chunk.  Both i -> i ^ 2 and i -> i ^ c3 map the classes of the prefix
# with bit 1 set onto those with it clear (bit w lies below bit B-2 wherever
# the four colorings are independent), so over the former the credits
# f(i ^ 2) take each value as often as f(i ^ c3) = f(i) does, and bit 0
# changes no f.  But i ^ c3 differs from i in bit w, in another run of
# chessboard row 1 and, in general, another chunk.

@lru_cache(maxsize=64)
def _quotient_generators(r: int, n: int) -> tuple[int, int, int, int] | None:
    """(c2, c3, c(n-3), c(n-2)) if a survey of the whole space may count one class in 16.

    It may when the four colorings are independent on the pivot bits 0, 1,
    B-2 and B-1 of the B-bit class index, which needs B >= 4; two equal
    columns among 2, 3, n-3 and n-2 would give equal masks.  Otherwise, at
    (2,4), (2,5), (2,6), (3,5), (3,6) and (4,6), the result is None.
    """
    squares = relevant_squares(r, n)
    if len(squares) < 4:
        return None
    masks = tuple(
        sum(1 << bit for bit, (_, j) in enumerate(squares) if j == column)
        for column in (2, 3, n - 3, n - 2)
    )
    pivots = 3 | 3 << (len(squares) - 2)
    span = {0}
    for mask in masks:
        span |= {m ^ (mask & pivots) for m in span}
    return masks if len(span) == 16 else None


def _counted(cfg: SurveyConfig) -> tuple[int, int, int, int]:
    """(quotient, low bits L, first index, end index): the classes a survey counts.

    Class i of [first, end) is credited with f(i & ~(2^L - 1)), and the
    survey's histogram is the credited one times the classes of its bounds
    over end - first.  A circuits survey of the whole space counts the
    prefix [0, N/4) with L = 2 where ``_quotient_generators`` allows it,
    one class in 16 standing for its coset: quotient 16.  Every other
    survey, quotient 1, counts each class in its bounds for itself: the
    circuits engine with L = 1, which is exact as f(i) = f(i ^ 1), so that
    a range of the whole space is the full-space check, and the travels
    engine with L = 0, so that it stays an independent check.  Checkpoints
    record the quotient.
    """
    lo, hi = cfg.bounds()
    if cfg.engine != "circuits":
        return 1, 0, lo, hi
    if cfg.index_range is None and _quotient_generators(cfg.rank, cfg.elements) is not None:
        return 16, 2, lo, hi // 4
    return 1, 1, lo, hi


def _chunk_jobs(cfg: SurveyConfig, next_index: int) -> list[tuple[int, int]]:
    """Batches of the classes from ``next_index`` on, as (first index, end index).

    The classes are those ``_counted`` names, cut into chunks of
    ``chunk_size`` classes, chunk c the classes [c * size, (c + 1) * size).
    The first batch starts at the cursor and every batch ends at a chunk's
    end or at the range's end.  One batch is counted by one call and
    checkpointed by one write, so small chunks do not pay the fixed cost of
    a call and a write each.  A batch holds up to
    ceil(DEFAULT_CHUNK_SIZE / chunk_size) chunks, so one chunk at
    DEFAULT_CHUNK_SIZE or more, and few enough that every worker still gets
    at least four batches when there are enough chunks.  Past _MAX_BATCHES
    pending chunks it holds ceil(pending / _MAX_BATCHES) of them instead,
    which bounds the number of synced writes.
    """
    _, _, lo, hi = _counted(cfg)
    if next_index >= hi:
        return []
    size = cfg.chunk_size
    start = next_index // size * size
    pending = -(-(hi - start) // size)
    per_batch = max(
        1,
        -(-pending // _MAX_BATCHES),
        min(-(-DEFAULT_CHUNK_SIZE // size), pending // (4 * cfg.threads)),
    )
    step = per_batch * size
    return [(max(next_index, a), min(hi, a + step)) for a in range(start, hi, step)]


def _survey_c_value(cfg: SurveyConfig) -> CValue:
    if cfg.rank < 2 * cfg.k + 1:
        return CValue(None, formulas.SOURCE_UNKNOWN)
    return formulas.c_value(cfg.rank, cfg.elements, cfg.k)


def run_survey(cfg: SurveyConfig) -> SurveyResult:
    """Evaluate f for every class index in range and aggregate the statistics.

    Batches of pending classes run in this process, or on a pool of at most
    ``cfg.threads`` workers and no more than there are batches.  The table
    is built only when some class is pending: once, here, unless the pool
    starts its workers other than by fork, and then once in each worker.
    """
    start = time.perf_counter()
    if cfg.checkpoint_path is not None:
        # checked before counting, so that no count is lost for want of a place to save it
        _check_writable(cfg.checkpoint_path, f"checkpoint {Path(cfg.checkpoint_path)}")
    lo, hi = cfg.bounds()
    _, _, first, end = _counted(cfg)

    meta = _checkpoint_meta(cfg)
    checkpoint = Checkpoint(meta, first, Counter(), None)
    if cfg.checkpoint_path is not None and Path(cfg.checkpoint_path).exists():
        checkpoint = load_checkpoint(cfg.checkpoint_path)
        if checkpoint.meta != meta:
            raise CheckpointMismatchError(
                f"checkpoint at {cfg.checkpoint_path} was written for {checkpoint.meta}, "
                f"refusing to resume a survey with {meta}"
            )

    jobs = _chunk_jobs(cfg, checkpoint.next_index)

    def absorb(a: int, b: int, hist: dict, alt: int | None) -> None:
        if a != checkpoint.next_index:
            raise RuntimeError(f"batch [{a},{b}) out of order at class {checkpoint.next_index}")
        checkpoint.partial_histogram.update(hist)
        checkpoint.next_index = b
        if alt is not None:
            checkpoint.alternating_class_f = alt
        if cfg.checkpoint_path is not None:
            save_checkpoint(cfg.checkpoint_path, checkpoint)

    serial = cfg.threads == 1 or len(jobs) <= 1
    in_parent = serial or multiprocessing.get_start_method() == "fork"
    table = _survey_table(cfg, end - first) if jobs and in_parent else None
    if serial:
        for a, b in jobs:
            absorb(a, b, *_run_chunk(cfg, table, a, b))
    else:
        with multiprocessing.Pool(
            processes=min(cfg.threads, len(jobs)),
            initializer=_init_worker,
            initargs=(cfg, table, end - first),
        ) as pool:
            for batch in pool.imap(_worker_chunk, jobs):
                absorb(*batch)

    scale = (hi - lo) // (end - first)
    hist = {f: c * scale for f, c in checkpoint.partial_histogram.items()}
    alternating_f = checkpoint.alternating_class_f
    failed = _failed(_histogram_checks(hist, hi - lo))
    if failed:
        raise RuntimeError(f"survey self-check failed: {failed}")
    max_f = max(hist)
    maximizers = hist[max_f]
    exclude_alt = 1 if (alternating_f is not None and alternating_f == max_f) else 0
    return SurveyResult(
        rank=cfg.rank,
        elements=cfg.elements,
        k=cfg.k,
        engine=cfg.engine,
        class_count=class_count(cfg.rank, cfg.elements),
        surveyed=hi - lo,
        c=_survey_c_value(cfg),
        max_f=max_f,
        maximizer_count_total=maximizers,
        maximizer_count_excluding_alternating=maximizers - exclude_alt,
        alternating_class_f=alternating_f,
        histogram=hist,
        elapsed_seconds=time.perf_counter() - start,
        index_range=cfg.index_range,
    )


# ---------------------------------------------------------------------------
# verification presets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurveyPreset:
    rank: int
    elements: int
    k: int
    expected_max_f: int | None = None
    expected_maximizers_excluding_alternating: int | None = None


PRESETS: dict[str, SurveyPreset] = {
    "r3n5k1": SurveyPreset(3, 5, 1, expected_max_f=2),
    "r4n8k1": SurveyPreset(4, 8, 1, expected_max_f=16),
    "r7n11k2": SurveyPreset(7, 11, 2, expected_maximizers_excluding_alternating=255),
    "r8n11k2": SurveyPreset(8, 11, 2, expected_maximizers_excluding_alternating=255),
    "r8n11k3": SurveyPreset(8, 11, 3, expected_maximizers_excluding_alternating=251),
    "r9n12k2": SurveyPreset(9, 12, 2, expected_maximizers_excluding_alternating=511),
    "r9n12k3": SurveyPreset(9, 12, 3, expected_maximizers_excluding_alternating=511),
    "r8n12k2": SurveyPreset(8, 12, 2, expected_maximizers_excluding_alternating=511),
    "r8n12k3": SurveyPreset(8, 12, 3, expected_maximizers_excluding_alternating=511),
    "r9n13k3": SurveyPreset(9, 13, 3, expected_maximizers_excluding_alternating=1023),
}


@dataclass
class VerifyReport:
    case: str
    result: SurveyResult
    checks: list[tuple[str, bool, str]]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def lines(self) -> list[str]:
        return [
            f"case {self.case} (rank {self.result.rank}, "
            f"elements {self.result.elements}, k {self.result.k})",
            *(
                f"{'PASS' if ok else 'FAIL'} {label}: {detail}"
                for label, ok, detail in self.checks
            ),
            f"result: {'PASS' if self.passed else 'FAIL'}",
        ]

    def to_json_dict(self) -> dict:
        return {
            "case": self.case,
            "passed": self.passed,
            "checks": [
                {"label": label, "passed": ok, "detail": detail}
                for label, ok, detail in self.checks
            ],
            "result": self.result.to_json_dict(),
        }


def verify_case(
    case: str,
    threads: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    checkpoint_path: str | Path | None = None,
) -> VerifyReport:
    """Run a preset survey and assert its expected statistics."""
    try:
        preset = PRESETS[case]
    except KeyError:
        raise ValueError(
            f"unknown case {case!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
    cfg = SurveyConfig(
        rank=preset.rank,
        elements=preset.elements,
        k=preset.k,
        threads=threads,
        chunk_size=chunk_size,
        checkpoint_path=checkpoint_path,
    )
    result = run_survey(cfg)
    c = result.c.value

    checks = _histogram_checks(result.histogram, result.class_count)
    if c is not None:
        checks.append(
            (
                "alternating-class-f",
                result.alternating_class_f == c,
                f"f(class 0) = {result.alternating_class_f}, c = {c} ({result.c.source})",
            )
        )
        ok = result.max_f <= c
        checks.append(
            (
                "max-f-at-most-c",
                ok,
                f"max_f = {result.max_f} <= c = {c}"
                if ok
                else f"FALSIFICATION: max_f = {result.max_f} exceeds c = {c}",
            )
        )
    if preset.expected_max_f is not None:
        checks.append(
            (
                "max-f-expected",
                result.max_f == preset.expected_max_f,
                f"max_f = {result.max_f}, expected {preset.expected_max_f}",
            )
        )
    expected_excl = preset.expected_maximizers_excluding_alternating
    if expected_excl is not None:
        got = result.maximizer_count_excluding_alternating
        checks.append(
            (
                "maximizers-excluding-alternating",
                got == expected_excl,
                f"{got} non-alternating classes attain max_f, expected {expected_excl}",
            )
        )
    return VerifyReport(case, result, checks)


# ---------------------------------------------------------------------------
# consistency sweeps
# ---------------------------------------------------------------------------

def _sample_indices(r: int, n: int, sample_size: int, seed: int) -> list[int]:
    if sample_size < 0:
        raise ValueError(f"samples must be non-negative, got {sample_size}")
    total = class_count(r, n)
    if sample_size >= total:
        return list(range(total))
    rng = random.Random(seed)
    if total <= sys.maxsize:
        return sorted(rng.sample(range(total), sample_size))
    # random.sample takes len(range(total)), which overflows past sys.maxsize
    chosen: set[int] = set()
    while len(chosen) < sample_size:
        chosen.add(rng.randrange(total))
    return sorted(chosen)


@dataclass
class _SampledCheck:
    """The classes a sampled sweep checked and the issues it found: each subclass
    adds the list of issues, named ``plural``, and the words ``kind`` and ``issue``."""

    rank: int
    elements: int
    k: int
    seed: int
    indices: list[int]

    @property
    def issues(self) -> list[dict]:
        return getattr(self, self.plural)

    @property
    def passed(self) -> bool:
        return not self.issues

    def lines(self) -> list[str]:
        return [
            f"{self.kind} check: rank {self.rank}, elements {self.elements}, k {self.k}, "
            f"{len(self.indices)} classes, seed {self.seed}",
            *(f"{self.issue}: {issue}" for issue in self.issues),
            f"result: {'PASS' if self.passed else 'FAIL'} ({len(self.issues)} {self.plural})",
        ]

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "elements": self.elements,
            "k": self.k,
            "seed": self.seed,
            "classes_checked": len(self.indices),
            "passed": self.passed,
            self.plural: self.issues,
        }


@dataclass
class CrosscheckReport(_SampledCheck):
    mismatches: list[dict]
    kind = "engine agreement"
    issue = "mismatch"
    plural = "mismatches"


@dataclass
class MinorRecursionReport(_SampledCheck):
    violations: list[dict]
    kind = "minor recursion"
    issue = "violation"
    plural = "violations"


def _sweep(
    r: int, n: int, sample_size: int, seed: int,
    issues_of: Callable[[sign_core.SignMatrix], Iterator[dict]],
) -> tuple[list[int], list[dict]]:
    """The sampled class indices, and each issue ``issues_of`` yields for the
    representative of one, led by that class's ``"index"``."""
    indices = _sample_indices(r, n, sample_size, seed)
    issues = [
        {"index": index, **issue}
        for index in indices
        for issue in issues_of(representative_of_index(r, n, index))
    ]
    return indices, issues


def engine_crosscheck(
    r: int, n: int, k: int, sample_size: int, seed: int
) -> CrosscheckReport:
    """Compare the circuits and travels engines on sampled class indices."""
    _check_class_space(r, n, k, "circuits")  # the narrower engine

    def mismatches(A: sign_core.SignMatrix) -> Iterator[dict]:
        by_circuits = sign_core.count_k_neighborly_reorientations(A, k)
        by_travels = travels.f_via_travels(A, k)
        if by_circuits != by_travels:
            yield {"circuits": by_circuits, "travels": by_travels}

    return CrosscheckReport(r, n, k, seed, *_sweep(r, n, sample_size, seed, mismatches))


def minor_recursion_check(
    r: int, n: int, k: int, sample_size: int, seed: int
) -> MinorRecursionReport:
    """Check f(M) <= f(M/e) + f(M\\e) for sampled classes and every element e."""
    if r < 3:
        raise ValueError(f"minor recursion check needs rank >= 3, got rank {r}")
    if n < r + 2:
        raise ValueError(f"minor recursion check needs n >= r+2, got r={r}, n={n}")
    _check_class_space(r, n, k, "circuits")

    def violations(A: sign_core.SignMatrix) -> Iterator[dict]:
        count = sign_core.count_k_neighborly_reorientations_chirotope
        table = sign_core.chirotope_from_matrix(A)
        f = count(table, k)
        for e in range(1, n + 1):
            f_contract = count(sign_core.contract_element(table, e), k)
            f_delete = count(sign_core.delete_element(table, e), k)
            if f > f_contract + f_delete:
                yield {
                    "element": e,
                    "f": f,
                    "f_contract": f_contract,
                    "f_delete": f_delete,
                }

    return MinorRecursionReport(r, n, k, seed, *_sweep(r, n, sample_size, seed, violations))
