import dataclasses
import json
import os
import random
import re
import subprocess
import sys
import textwrap
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import lomlab.sign_core as sign_core
import lomlab.survey as survey_module
import lomlab.travels as travels_module
from conftest import brute_force_count
from lomlab.chessboard import class_count, representative_of_index
from lomlab.cli import main as cli_main
from lomlab.sign_core import _run_width, violation_table_nbytes
from lomlab.survey import (
    DEFAULT_CHUNK_SIZE,
    PRESETS,
    Checkpoint,
    CheckpointMismatchError,
    CorruptCheckpointError,
    SurveyConfig,
    _checkpoint_meta,
    _chunk_jobs,
    _counted,
    _quotient_generators,
    _run_chunk,
    _sample_indices,
    _survey_table,
    engine_crosscheck,
    load_checkpoint,
    minor_recursion_check,
    run_survey,
    save_checkpoint,
    verify_case,
)


def result_fingerprint(result):
    d = result.to_json_dict()
    d.pop("elapsed_seconds")
    return json.dumps(d, sort_keys=True)


def whole_space_json(result):
    """A survey's JSON less its elapsed time, and less its range if that is the whole space."""
    d = result.to_json_dict()
    d.pop("elapsed_seconds")
    if d.get("range") == [0, d["class_count"]]:
        del d["range"]
    return json.dumps(d)


@pytest.fixture
def pools(monkeypatch):
    """Worker counts of the process pools that surveys start during the test."""
    started = []
    real = survey_module.multiprocessing.Pool

    def spy(processes=None, *args, **kwargs):
        started.append(processes)
        return real(processes, *args, **kwargs)

    monkeypatch.setattr(survey_module.multiprocessing, "Pool", spy)
    return started


class TestRunSurvey:
    def test_tiny_survey_against_oracle(self):
        result = run_survey(SurveyConfig(3, 5, 1))
        oracle = Counter(
            brute_force_count(representative_of_index(3, 5, i), 1) for i in range(4)
        )
        assert result.class_count == 4
        assert result.histogram == dict(oracle)
        assert result.max_f == 2
        assert result.alternating_class_f == 2
        assert result.c.value == 2
        assert sum(result.histogram.values()) == 4
        assert all(f % 2 == 0 for f in result.histogram)

    def test_conjectured_maximum_holds_at_small_sizes(self):
        for r, n, k in [(3, 6, 1), (4, 6, 1), (4, 7, 1)]:
            result = run_survey(SurveyConfig(r, n, k))
            assert result.max_f <= result.c.value
            assert result.alternating_class_f == result.c.value

    def test_determinism_across_threads_and_chunks(self, pools):
        base = result_fingerprint(run_survey(SurveyConfig(3, 6, 1)))
        for threads, chunk in [(1, 1), (1, 3), (2, 2), (3, 64), (2, 5)]:
            cfg = SurveyConfig(3, 6, 1, threads=threads, chunk_size=chunk)
            assert result_fingerprint(run_survey(cfg)) == base
        assert pools == [2, 2]  # chunk size 64 leaves one chunk, counted in-process

    def test_pool_starts_no_more_workers_than_batches(self, pools):
        # (3,6) counts each of its 16 classes, in four chunks of 4
        cfg = SurveyConfig(3, 6, 1, threads=8, chunk_size=4)
        assert len(_chunk_jobs(cfg, 0)) == 4
        base = result_fingerprint(run_survey(SurveyConfig(3, 6, 1)))
        assert result_fingerprint(run_survey(cfg)) == base
        assert pools == [4]

    def test_travels_engine_agrees(self):
        by_circuits = run_survey(SurveyConfig(3, 6, 1))
        by_travels = run_survey(SurveyConfig(3, 6, 1, engine="travels"))
        assert by_travels.histogram == by_circuits.histogram
        assert by_travels.max_f == by_circuits.max_f

    def test_index_range(self):
        full = run_survey(SurveyConfig(3, 6, 1))
        lower = run_survey(SurveyConfig(3, 6, 1, index_range=(0, 5)))
        upper = run_survey(SurveyConfig(3, 6, 1, index_range=(5, 16)))
        assert lower.surveyed == 5 and upper.surveyed == 11
        assert upper.alternating_class_f is None
        merged = Counter(lower.histogram) + Counter(upper.histogram)
        assert dict(merged) == full.histogram
        json_payload = lower.to_json_dict()
        assert json_payload["range"] == [0, 5]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SurveyConfig(3, 3, 1)
        with pytest.raises(ValueError):
            SurveyConfig(3, 5, 1, engine="quantum")
        with pytest.raises(ValueError):
            SurveyConfig(3, 5, 1, chunk_size=0)
        with pytest.raises(ValueError):
            SurveyConfig(3, 5, 1, index_range=(2, 99))


@pytest.fixture
def counted(monkeypatch):
    """Class indices that surveys count during the test, in the order counted."""
    indices = []
    real = survey_module._run_chunk

    def recorded(cfg, table, lo, hi):
        indices.extend(range(lo, hi))
        return real(cfg, table, lo, hi)

    monkeypatch.setattr(survey_module, "_run_chunk", recorded)
    return indices


class TestQuotient:
    """A circuits survey of the whole space counts the prefix [0, N/4),
    crediting class i with f(i & ~3), and takes the histogram 4 times: one
    class in 16 stands for its coset under the colorings of columns 2, 3,
    n-3 and n-2.  On the six shapes where those are not independent on the
    pivot bits, it counts every class, as a range survey, even of the whole
    space, and a travels survey do."""

    # the first eight count one class in 16, the last two every class
    @pytest.mark.parametrize(
        "r,n,k",
        [(2, 9, 0), (3, 7, 1), (4, 8, 1), (5, 9, 2), (6, 10, 2), (6, 8, 2), (5, 7, 1), (11, 13, 2),
         (3, 6, 1), (2, 6, 0)],
    )
    def test_matches_the_range_of_the_whole_space(self, counted, r, n, k):
        classes = class_count(r, n)
        prefix = classes // 4 if _quotient_generators(r, n) else classes
        assert (_quotient_generators(r, n) is None) == ((r, n) in [(3, 6), (2, 6)])
        quotiented = run_survey(SurveyConfig(r, n, k))
        assert sorted(counted) == list(range(prefix))
        counted.clear()
        ranged = run_survey(SurveyConfig(r, n, k, index_range=(0, classes)))
        assert sorted(counted) == list(range(classes))
        assert ranged.to_json_dict()["range"] == [0, classes]
        assert whole_space_json(quotiented) == whole_space_json(ranged)

    @pytest.mark.parametrize("chunk_size", [7, 1000, DEFAULT_CHUNK_SIZE])
    def test_counts_the_prefix_at_n_equal_r_plus_2(self, counted, monkeypatch, chunk_size):
        # at n = r+2 row 1 is one square long, and c3 and c(n-3) are squares
        # (2,3) and (r-2, r-1) alone; 1000 and 7 do not divide the 256
        # classes of the prefix of (11,13), which is counted class by class,
        # the first class of each run of 4
        assert _quotient_generators(11, 13) is not None
        evaluated = set()
        real = survey_module._representative_entries
        monkeypatch.setattr(
            survey_module, "_representative_entries",
            lambda r, n, index: (evaluated.add(index), real(r, n, index))[1],
        )
        result = run_survey(SurveyConfig(11, 13, 2, chunk_size=chunk_size))
        assert sorted(counted) == list(range(256))
        assert evaluated == set(range(0, 256, 4))
        assert result.surveyed == sum(result.histogram.values()) == 1024

    @pytest.mark.skipif(
        os.environ.get("LOMLAB_LONG") != "1", reason="2^24 classes twice; set LOMLAB_LONG=1 to run"
    )
    @pytest.mark.parametrize("r,n,k", [(5, 12, 1), (9, 13, 3)])
    def test_matches_the_range_of_a_large_space(self, r, n, k):
        quotiented = run_survey(SurveyConfig(r, n, k, threads=2))
        classes = class_count(r, n)
        ranged = run_survey(SurveyConfig(r, n, k, threads=2, index_range=(0, classes)))
        assert whole_space_json(quotiented) == whole_space_json(ranged)

    @pytest.fixture(scope="class")
    def range_of_7_11(self):
        return whole_space_json(run_survey(SurveyConfig(7, 11, 2, index_range=(0, 262144))))

    @pytest.mark.parametrize(
        "chunk_size,threads", [(1, 1), (3, 1), (7, 1), (1000, 1), (DEFAULT_CHUNK_SIZE, 1), (7, 2)]
    )
    def test_counts_the_prefix_at_any_chunk_size(
        self, counted, range_of_7_11, chunk_size, threads
    ):
        # 1000, 7 and 3 do not divide the 65536 classes of the prefix of (7,11);
        # the classes a pool worker counts are not recorded here
        result = run_survey(SurveyConfig(7, 11, 2, chunk_size=chunk_size, threads=threads))
        assert sorted(counted) == (list(range(65536)) if threads == 1 else [])
        assert result.surveyed == sum(result.histogram.values()) == 262144
        assert whole_space_json(result) == range_of_7_11

    def test_range_across_half_the_space_counts_each_class(self, counted):
        result = run_survey(SurveyConfig(4, 8, 1, chunk_size=16, index_range=(200, 300)))
        assert counted == list(range(200, 300))
        assert sum(result.histogram.values()) == 100

    def test_travels_counts_every_class(self, counted):
        run_survey(SurveyConfig(4, 8, 1, engine="travels", chunk_size=7))
        assert counted == list(range(512))


class TestChunkJobs:
    """Pending classes go out in batches of contiguous classes, from the
    cursor to the end, made of whole chunks of ``chunk_size`` classes, chunk c
    the classes [c * size, (c + 1) * size).  The classes are those a survey
    counts: the prefix [0, N/4) of the space for a circuits survey of the
    whole space, which stands for the other three quarters too, and every
    class in its bounds for any other survey.  ``skip`` is the range of
    classes that a checkpoint holds counted, from the first class to the
    cursor."""

    @staticmethod
    def chunk_id_batches(cfg, next_chunk):
        """The bounds of the batches from chunk ``next_chunk`` on, as batches of
        chunk ids gave them when checkpoints recorded a chunk cursor."""
        _, _, lo, hi = _counted(cfg)
        size = cfg.chunk_size
        stop = -(-hi // size)
        pending = stop - next_chunk
        per_batch = max(
            1,
            -(-pending // survey_module._MAX_BATCHES),
            min(-(-DEFAULT_CHUNK_SIZE // size), pending // (4 * cfg.threads)),
        )
        return [
            (max(lo, c * size), min(hi, (c + per_batch) * size))
            for c in range(next_chunk, stop, per_batch)
        ]

    @classmethod
    def check(cls, cfg, bounds, skip, per_batch):
        lo, hi = bounds
        size = cfg.chunk_size
        assert skip.start == lo
        jobs = _chunk_jobs(cfg, skip.stop)
        # each pending class once, in order, and each batch but the last ends at a chunk's end
        assert [a for a, _ in jobs] == [skip.stop, *(b for _, b in jobs[:-1])]
        assert jobs[-1][1] == hi
        assert all(b % size == 0 for _, b in jobs[:-1])
        # the bounds of batches of chunk ids from the chunk the cursor starts
        assert jobs == cls.chunk_id_batches(cfg, skip.stop // size)
        # every batch but the last holds the cap
        chunks = [-(-b // size) - a // size for a, b in jobs]
        assert set(chunks[:-1]) <= {per_batch}
        assert 1 <= chunks[-1] <= per_batch
        assert max(chunks) == per_batch
        return sum(chunks)

    @pytest.mark.parametrize(
        "r,n,chunk_size,threads,index_range,skip,per_batch",
        [
            (3, 8, 4, 1, None, range(0), 16),  # 64 chunks: at least four batches a worker
            (3, 8, 4, 2, None, range(16), 7),  # 60 pending // (4 * 2)
            (3, 8, 4, 1, (5, 251), range(5, 12), 15),  # chunks 1..62, the ends cut by the range
            (7, 11, 2048, 1, None, range(2048), 2),  # DEFAULT_CHUNK_SIZE classes a batch
            (3, 8, 4, 3, None, range(240), 1),  # too few pending chunks to merge
            (7, 11, DEFAULT_CHUNK_SIZE, 1, None, range(0), 1),
            (7, 11, 5000, 2, None, range(5000), 1),
        ],
    )
    def test_batches(self, r, n, chunk_size, threads, index_range, skip, per_batch):
        cfg = SurveyConfig(
            r, n, 1, engine="travels", threads=threads, chunk_size=chunk_size,
            index_range=index_range,
        )
        self.check(cfg, cfg.bounds(), skip, per_batch)

    # the circuits engine's chunks of a whole-space survey stop at a quarter
    # of the space; those of a range cover all of it
    @pytest.mark.parametrize(
        "r,n,chunk_size,threads,index_range,skip,per_batch,pending",
        [
            (3, 8, 2, 1, None, range(0), 8, 32),  # 32 chunks of the prefix: four batches a worker
            (3, 8, 2, 2, None, range(6), 3, 29),  # 29 pending // (4 * 2)
            (3, 8, 4, 1, (5, 251), range(5, 12), 15, 60),  # chunks 1..62, across the prefix's end
            (7, 11, 2048, 1, None, range(2048), 2, 31),  # DEFAULT_CHUNK_SIZE classes a batch
            (3, 8, 2, 3, None, range(56), 1, 4),  # too few pending chunks to merge
            (7, 11, DEFAULT_CHUNK_SIZE, 1, None, range(0), 1, 16),
            (7, 11, 5000, 2, None, range(5000), 1, 13),  # the last chunk is cut at the prefix's end
            (3, 6, 3, 1, (7, 9), range(7, 7), 1, 1),  # [7, 9) across half the space, cut by the range
        ],
    )
    def test_mirrored_batches(
        self, r, n, chunk_size, threads, index_range, skip, per_batch, pending
    ):
        cfg = SurveyConfig(
            r, n, 1, threads=threads, chunk_size=chunk_size, index_range=index_range
        )
        bounds = index_range or (0, class_count(r, n) // 4)
        assert self.check(cfg, bounds, skip, per_batch) == pending

    def test_checkpoint_writes_stay_bounded(self):
        # every write is synced: the 65536 default-size chunks of the prefix
        # of (7,13) go out in 4096 batches, not one write each
        jobs = _chunk_jobs(SurveyConfig(7, 13, 2, threads=2), 0)
        assert len(jobs) == 4096
        assert {b - a for a, b in jobs} == {16 * DEFAULT_CHUNK_SIZE}

    def test_batches_past_sys_maxsize_chunks(self):
        # 2^75 classes in default chunks: more chunks than len() can give
        cfg = SurveyConfig(8, 20, 2)
        _, _, lo, hi = _counted(cfg)
        assert (lo, hi) == (0, 1 << 75) and hi // cfg.chunk_size > sys.maxsize
        jobs = _chunk_jobs(cfg, 0)
        assert 1 <= len(jobs) <= survey_module._MAX_BATCHES
        assert (jobs[0][0], jobs[-1][1]) == (0, hi)
        for (_, end), (first, _) in zip(jobs, jobs[1:]):
            assert end == first

    @staticmethod
    def greedy_batches(cfg, cursor):
        """The batches of a greedy merge over a list of every chunk of the
        counted classes that ends past the cursor, the first cut by it."""
        _, _, lo, hi = _counted(cfg)
        size = cfg.chunk_size
        pending = [
            (max(cursor, c * size), min(hi, (c + 1) * size))
            for c in range(lo // size, (hi - 1) // size + 1)
            if min(hi, (c + 1) * size) > cursor
        ]
        per_batch = max(
            1,
            -(-len(pending) // survey_module._MAX_BATCHES),
            min(-(-DEFAULT_CHUNK_SIZE // size), len(pending) // (4 * cfg.threads)),
        )
        batches = []  # [first, end, chunks]
        for a, b in pending:
            if batches and batches[-1][2] < per_batch:
                batches[-1][1:] = b, batches[-1][2] + 1
            else:
                batches.append([a, b, 1])
        return [(a, b) for a, b, _ in batches]

    def test_same_batches_as_a_greedy_merge(self):
        # at a cursor on a chunk's start, as a survey of this chunk size
        # writes it, the batches are also those of chunk ids; at any other
        # cursor, as one of another chunk size writes it, the first batch
        # starts at the cursor
        rng = random.Random(16)
        shapes = [(r, n) for r in range(2, 8) for n in range(r + 1, 15)]
        cases = 0
        while cases < 400:
            r, n = rng.choice(shapes)
            chunk_size = rng.choice([1, 7, 64, 1000, 4096])
            total = class_count(r, n)
            index_range = None
            if rng.random() < 0.5:
                lo = rng.randrange(total)
                index_range = (lo, rng.randrange(lo + 1, total + 1))
            cfg = SurveyConfig(
                r, n, 1, engine=rng.choice(["circuits", "travels"]),
                threads=rng.randint(1, 4), chunk_size=chunk_size, index_range=index_range,
            )
            _, _, lo, hi = _counted(cfg)
            first, stop = lo // chunk_size, -(-hi // chunk_size)
            if stop - first > 1 << 14:
                continue
            done = rng.choice([0, 0.01, 0.3, 0.5, 0.9, 1, rng.random()])
            next_chunk = first + int(done * (stop - first))
            cursor = max(lo, min(hi, next_chunk * chunk_size))
            assert (
                _chunk_jobs(cfg, cursor)
                == self.greedy_batches(cfg, cursor)
                == self.chunk_id_batches(cfg, next_chunk)
            ), (cfg, cursor)
            cursor = rng.choice([lo, hi, rng.randint(lo, hi)])
            assert _chunk_jobs(cfg, cursor) == self.greedy_batches(cfg, cursor), (cfg, cursor)
            cases += 1

    def test_frontier_batches_cost_no_memory_per_chunk(self):
        # the 2^21 chunks of the prefix of (6,14) go out in 4096 batches,
        # with no list of the chunks themselves, with none, half or nine
        # tenths of them done
        cfg = SurveyConfig(6, 14, 2)
        for done in (0, 1 << 20, 15 << 17):
            tracemalloc.start()
            try:
                jobs = _chunk_jobs(cfg, done * DEFAULT_CHUNK_SIZE)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(jobs) == 4096
            assert {b - a for a, b in jobs} == {((1 << 21) - done) // 4096 * DEFAULT_CHUNK_SIZE}
            assert peak < 1 << 20


class TestCheckpointing:
    def test_resume_completes_partial_run(self, tmp_path):
        path = tmp_path / "survey.ckpt.json"
        cfg = SurveyConfig(3, 6, 1, chunk_size=4, checkpoint_path=path)

        # simulate an interrupted run: only classes 0..3 counted ((3,6) counts
        # every class: c3 and c(n-3) are one coloring)
        hist, alternating = _run_chunk(cfg, None, 0, 4)
        partial = Checkpoint(_checkpoint_meta(cfg), 4, Counter(hist), alternating)
        save_checkpoint(path, partial)

        resumed = run_survey(cfg)
        direct = run_survey(SurveyConfig(3, 6, 1, chunk_size=4))
        assert result_fingerprint(resumed) == result_fingerprint(direct)

        # the checkpoint on disk now covers each of the 16 classes once
        final = load_checkpoint(path)
        assert final.next_index == 16
        assert sum(final.partial_histogram.values()) == 16

    def test_checkpoint_write_is_idempotent_when_complete(self, tmp_path):
        path = tmp_path / "done.ckpt.json"
        cfg = SurveyConfig(3, 5, 1, chunk_size=2, checkpoint_path=path)
        first = run_survey(cfg)
        again = run_survey(cfg)  # everything already done, nothing recomputed
        assert result_fingerprint(first) == result_fingerprint(again)

    def test_metadata_mismatch_refused(self, tmp_path):
        path = tmp_path / "other.ckpt.json"
        run_survey(SurveyConfig(3, 6, 1, chunk_size=4, checkpoint_path=path))
        with pytest.raises(CheckpointMismatchError):
            run_survey(SurveyConfig(3, 6, 0, chunk_size=4, checkpoint_path=path))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_resume_from_every_batch_boundary(self, tmp_path, monkeypatch, pools, threads):
        path = tmp_path / "boundary.ckpt.json"
        cfg = SurveyConfig(8, 11, 2, threads=threads, chunk_size=64, checkpoint_path=path)
        written = []
        real = survey_module.save_checkpoint
        monkeypatch.setattr(
            survey_module, "save_checkpoint",
            lambda p, cp: (real(p, cp), written.append(Path(p).read_text())),
        )
        fresh = result_fingerprint(run_survey(cfg))
        assert fresh == result_fingerprint(run_survey(SurveyConfig(8, 11, 2)))
        # 64 chunks of the prefix's 4096 classes in four batches a worker; the
        # last write is the complete run
        boundaries = written.copy()
        step = 4096 // (4 * threads)
        assert [json.loads(text)["next_index"] for text in boundaries] == list(range(step, 4097, step))
        for text in boundaries:
            # indented, as earlier versions wrote checkpoints, and still read
            path.write_text(json.dumps(json.loads(text), indent=2) + "\n")
            assert result_fingerprint(run_survey(cfg)) == fresh
            assert load_checkpoint(path).next_index == 4096
        # on two threads, the fresh run and each resume with chunks pending start a pool
        assert pools == [2] * (threads > 1) * 8

    def test_pool_writes_one_checkpoint_per_batch(self, tmp_path, monkeypatch, pools):
        path = tmp_path / "pool.ckpt.json"
        cfg = SurveyConfig(8, 11, 2, threads=2, chunk_size=64, checkpoint_path=path)
        saved = []
        real = survey_module.save_checkpoint
        monkeypatch.setattr(
            survey_module, "save_checkpoint",
            lambda p, cp: (saved.append(cp.next_index), real(p, cp)),
        )
        pooled = result_fingerprint(run_survey(cfg))
        assert pooled == result_fingerprint(run_survey(SurveyConfig(8, 11, 2)))
        # 64 chunks in the prefix, 8 to a batch: four batches for each of
        # the two workers
        assert len(saved) == len(_chunk_jobs(cfg, 0)) == 8
        assert saved == list(range(512, 4097, 512))
        assert load_checkpoint(path).next_index == 4096
        assert pools == [2]

    def test_pool_absorbs_batches_in_order(self, tmp_path, monkeypatch, pools):
        # The first batch finishes last: the workers, forked after the patch,
        # sleep on it.  Every checkpoint written meanwhile still loads, each
        # one further on.  (4,8) counts 16 chunks of 8 in 8 batches of two.
        path = tmp_path / "order.ckpt.json"
        want = result_fingerprint(run_survey(SurveyConfig(4, 8, 1)))
        real_run, real_save = survey_module._run_chunk, survey_module.save_checkpoint

        def first_batch_last(cfg, table, lo, hi):
            if lo == 0:
                time.sleep(0.5)
            return real_run(cfg, table, lo, hi)

        cursors = []
        monkeypatch.setattr(survey_module, "_run_chunk", first_batch_last)
        monkeypatch.setattr(
            survey_module, "save_checkpoint",
            lambda p, cp: (real_save(p, cp), cursors.append(load_checkpoint(p).next_index)),
        )
        cfg = SurveyConfig(4, 8, 1, threads=2, chunk_size=8, checkpoint_path=path)
        assert result_fingerprint(run_survey(cfg)) == want
        assert cursors == list(range(16, 129, 16))
        assert pools == [2]

    def test_resume_at_another_chunk_size_and_thread_count(self, tmp_path, monkeypatch, pools):
        # (7,11,2) at chunk size 64 writes a checkpoint every 4096 classes; it
        # is stopped after three and resumed at chunk size 1000, whose chunk
        # 12 holds the cursor 12288, on two workers
        path = tmp_path / "rechunked.ckpt.json"
        cfg = SurveyConfig(7, 11, 2, chunk_size=64, checkpoint_path=path)
        real, written = survey_module.save_checkpoint, []

        class Stopped(Exception):
            pass

        def stop_after_three(p, cp):
            real(p, cp)
            written.append(cp.next_index)
            if len(written) == 3:
                raise Stopped

        with monkeypatch.context() as m:
            m.setattr(survey_module, "save_checkpoint", stop_after_three)
            with pytest.raises(Stopped):
                run_survey(cfg)
        assert written == [4096, 8192, 12288]
        assert "chunk_size" not in json.loads(path.read_text())["meta"]
        resumed = run_survey(dataclasses.replace(cfg, chunk_size=1000, threads=2))
        assert result_fingerprint(resumed) == result_fingerprint(run_survey(SurveyConfig(7, 11, 2)))
        assert load_checkpoint(path).next_index == class_count(7, 11) // 4
        assert pools == [2]

    def test_range_mismatch_refused(self, tmp_path):
        path = tmp_path / "ranged.ckpt.json"
        run_survey(SurveyConfig(3, 6, 1, chunk_size=4, checkpoint_path=path, index_range=(0, 8)))
        with pytest.raises(CheckpointMismatchError):
            run_survey(SurveyConfig(3, 6, 1, chunk_size=4, checkpoint_path=path))

    # (4,8) has 512 classes in 32 chunks of 16.  The whole-space survey
    # counts classes 0..127, the prefix; the range survey of all 512 counts
    # every class, also those whose mirror, 256 classes away, is counted.
    # lower-of-a-pair is chunk 0 counted without its mirror, first-batch the
    # first batch of two chunks, and prefix the whole prefix, none pending.
    @pytest.mark.parametrize(
        "cursor,index_range",
        [(256, (0, 512)), (16, (0, 512)), (32, None), (64, None), (128, None)],
        ids=["lower-half", "lower-of-a-pair", "first-batch", "lower-half-of-the-prefix", "prefix"],
    )
    def test_resume_counts_each_chunk_once(self, tmp_path, counted, cursor, index_range):
        path = tmp_path / "resume.ckpt.json"
        cfg = SurveyConfig(4, 8, 1, chunk_size=16, checkpoint_path=path, index_range=index_range)
        table = _survey_table(cfg, class_count(4, 8))
        hist, alternating = Counter(), None
        for a in range(0, cursor, 16):
            chunk_hist, chunk_alt = _run_chunk(cfg, table, a, a + 16)
            hist.update(chunk_hist)
            alternating = alternating if chunk_alt is None else chunk_alt
        save_checkpoint(path, Checkpoint(_checkpoint_meta(cfg), cursor, hist, alternating))
        counted.clear()

        resumed = result_fingerprint(run_survey(cfg))
        # every pending class of the counted ones is counted once, and none
        # that the checkpoint holds
        end = 512 if index_range else 128
        assert counted == list(range(cursor, end))
        assert resumed == result_fingerprint(run_survey(SurveyConfig(4, 8, 1, index_range=index_range)))
        assert load_checkpoint(path).next_index == end

    def test_quotient_recorded(self, tmp_path):
        metas = {}
        for name, cfg in {
            "whole": SurveyConfig(4, 8, 1, chunk_size=16),
            "range": SurveyConfig(4, 8, 1, chunk_size=16, index_range=(0, 512)),
            "travels": SurveyConfig(4, 8, 1, chunk_size=16, engine="travels"),
            "n=r+2": SurveyConfig(11, 13, 2, chunk_size=16),
            "tiny": SurveyConfig(3, 6, 1, chunk_size=4),
        }.items():
            path = tmp_path / f"{name}.ckpt.json"
            run_survey(dataclasses.replace(cfg, checkpoint_path=path))
            metas[name] = json.loads(path.read_text())["meta"]
        assert (metas["whole"]["quotient"], metas["whole"]["range"]) == (16, [0, 128])
        assert (metas["n=r+2"]["quotient"], metas["n=r+2"]["range"]) == (16, [0, 256])
        for name in ("range", "travels"):
            assert "quotient" not in metas[name] and metas[name]["range"] == [0, 512]
        # one of the six shapes that count every class
        assert "quotient" not in metas["tiny"] and metas["tiny"]["range"] == [0, 16]

    def test_quotient_two_checkpoint_refused(self, tmp_path):
        # the first 16 classes of the lower half of the space, as whole-space surveys
        # counted (4,8) before they counted one class in 16, (11,13) before
        # n = r+2 did too, and (3,6) before it counted every class
        for r, n, k in [(4, 8, 1), (11, 13, 2), (3, 6, 1)]:
            path = tmp_path / f"half{n}.ckpt.json"
            cfg = SurveyConfig(r, n, k, chunk_size=16, checkpoint_path=path)
            half = class_count(r, n) // 2
            meta = dict(_checkpoint_meta(cfg), quotient=2, range=[0, half])
            first = SurveyConfig(r, n, k, index_range=(0, min(16, half)))
            hist, alternating = _run_chunk(first, None, 0, min(16, half))
            save_checkpoint(path, Checkpoint(meta, min(16, half), hist, alternating))
            assert load_checkpoint(path).meta == meta
            with pytest.raises(CheckpointMismatchError, match=f"half{n}.ckpt.json"):
                run_survey(cfg)


class TestVerifyCase:
    def test_r3n5k1_passes(self):
        report = verify_case("r3n5k1")
        assert report.passed
        labels = [label for label, _, _ in report.checks]
        assert "max-f-expected" in labels
        lines = report.lines()
        assert lines[0] == "case r3n5k1 (rank 3, elements 5, k 1)"
        assert len(lines) == len(report.checks) + 2
        assert all(line.startswith("PASS") for line in lines[1:-1])
        assert lines[-1] == "result: PASS"

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            verify_case("r99n100k3")

    def test_report_json_shape(self):
        payload = verify_case("r3n5k1").to_json_dict()
        assert payload["case"] == "r3n5k1"
        assert payload["passed"] is True
        assert payload["result"]["class_count"] == 4


class TestTableEngine:
    """Surveys that count with the violation table give the mask path's bytes."""

    @staticmethod
    def mask_path(monkeypatch, cfg):
        with monkeypatch.context() as m:
            m.setattr(survey_module, "TABLE_MAX_BYTES", 0)
            return result_fingerprint(run_survey(cfg))

    @pytest.mark.parametrize("lo,hi,table", [(0, 15, False), (0, 16, True), (7, 23, True)])
    def test_switch_at_two_to_the_rank(self, monkeypatch, lo, hi, table):
        cfg = SurveyConfig(4, 8, 1, chunk_size=5, index_range=(lo, hi))
        assert (_survey_table(cfg, hi - lo) is not None) is table
        assert result_fingerprint(run_survey(cfg)) == self.mask_path(monkeypatch, cfg)

    def test_byte_constant_selects_the_mask_path(self, monkeypatch):
        need = violation_table_nbytes(5, 9)
        monkeypatch.setattr(survey_module, "TABLE_MAX_BYTES", need - 1)
        assert _survey_table(SurveyConfig(5, 9, 2), class_count(5, 9)) is None
        low = result_fingerprint(run_survey(SurveyConfig(5, 9, 2, chunk_size=1000)))
        monkeypatch.setattr(survey_module, "TABLE_MAX_BYTES", need)
        assert _survey_table(SurveyConfig(5, 9, 2), class_count(5, 9)) is not None
        assert result_fingerprint(run_survey(SurveyConfig(5, 9, 2, chunk_size=1000))) == low

    @staticmethod
    def record_tables(monkeypatch):
        """Arguments of each violation_table call; a call in a pool worker raises."""
        parent, built = os.getpid(), []
        real = sign_core.violation_table

        def in_parent_only(*args):
            if os.getpid() != parent:
                raise AssertionError(f"pool worker {os.getpid()} built a violation table")
            built.append(args)
            return real(*args)

        monkeypatch.setattr(sign_core, "violation_table", in_parent_only)
        return built

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_table_per_survey_built_in_the_parent(self, monkeypatch, pools, threads):
        built = self.record_tables(monkeypatch)
        cfg = SurveyConfig(4, 7, 1, threads=threads, chunk_size=7)
        assert result_fingerprint(run_survey(cfg)) == self.mask_path(
            monkeypatch, SurveyConfig(4, 7, 1)
        )
        assert built == [(4, 7, 1)]
        assert pools == [2] * (threads > 1)

    def test_complete_checkpoint_builds_no_table(self, tmp_path, monkeypatch, pools):
        # the range [5, 251) ends inside chunk 62 at chunk size 4, so its
        # complete cursor is on no chunk's end
        ranged = tmp_path / "end.json"
        cfgs = [
            SurveyConfig(4, 7, 1, threads=2, chunk_size=7, checkpoint_path=tmp_path / "c.json"),
            SurveyConfig(3, 8, 1, threads=2, chunk_size=4, index_range=(5, 251), checkpoint_path=ranged),
        ]
        first = [result_fingerprint(run_survey(cfg)) for cfg in cfgs]
        assert load_checkpoint(ranged).next_index == 251 and _chunk_jobs(cfgs[1], 251) == []
        built = self.record_tables(monkeypatch)
        assert [result_fingerprint(run_survey(cfg)) for cfg in cfgs] == first
        assert built == []
        assert pools == [2, 2]  # the resume passes have no batch and start no pool

    def test_forkserver_workers_build_their_own_table(self):
        # A table in the pool's initargs would be pickled into every worker
        # that is not forked, so under forkserver the parent builds none.
        script = textwrap.dedent(
            """
            import json, multiprocessing
            import lomlab.sign_core as sign_core
            from lomlab.survey import SurveyConfig, run_survey

            if __name__ == "__main__":
                built, real = [], sign_core.violation_table
                sign_core.violation_table = lambda *args: built.append(args) or real(*args)
                multiprocessing.set_start_method("forkserver")
                result = run_survey(SurveyConfig(4, 8, 1, threads=2, chunk_size=8))
                print(json.dumps({"result": result.to_json_dict(), "built": len(built)}))
            """
        )
        src = str(Path(sign_core.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        assert got["built"] == 0
        want = run_survey(SurveyConfig(4, 8, 1, chunk_size=8)).to_json_dict()
        for payload in (got["result"], want):
            payload.pop("elapsed_seconds")
        assert json.dumps(got["result"]) == json.dumps(want)

    @pytest.mark.parametrize("index", [0, 5])
    def test_one_class_range_counts_one_class(self, monkeypatch, index):
        # the first survey call of a fresh process, as perfbench's set-up
        # step times it: no table, no run plan, one count
        want = sign_core.count_k_neighborly_reorientations(representative_of_index(8, 11, index), 2)
        built = self.record_tables(monkeypatch)
        monkeypatch.setattr(sign_core, "_run_plan", lambda *args: pytest.fail("run plan built"))
        counted, real = [], survey_module._representative_entries
        monkeypatch.setattr(
            survey_module, "_representative_entries", lambda *args: counted.append(args) or real(*args)
        )
        result = run_survey(SurveyConfig(8, 11, 2, index_range=(index, index + 1)))
        assert built == [] and counted == [(8, 11, index & ~1)]
        assert result.histogram == {want: 1}
        assert result.alternating_class_f == (want if index == 0 else None)

    # runs of chessboard row 1 span 2^3 classes at (4,8) and 2^5 at (3,9)
    @pytest.mark.parametrize("r,n,k", [(4, 8, 1), (3, 9, 1)])
    @pytest.mark.parametrize("chunk_size", [5, 7, 4096])
    def test_runs_cut_by_chunk_edges(self, monkeypatch, r, n, k, chunk_size):
        cfg = SurveyConfig(r, n, k, chunk_size=chunk_size)
        assert result_fingerprint(run_survey(cfg)) == self.mask_path(monkeypatch, cfg)

    @pytest.mark.parametrize("lo,hi", [(3, 250), (33, 95), (70, 90)])
    def test_runs_cut_by_the_range(self, monkeypatch, lo, hi):
        cfg = SurveyConfig(3, 9, 1, chunk_size=40, index_range=(lo, hi))
        assert result_fingerprint(run_survey(cfg)) == self.mask_path(monkeypatch, cfg)

    def test_runs_on_a_pool(self, monkeypatch, pools):
        cfg = SurveyConfig(3, 9, 1, threads=2, chunk_size=7, index_range=(5, 251))
        assert result_fingerprint(run_survey(cfg)) == self.mask_path(monkeypatch, cfg)
        assert pools == [2, 2]  # the mask path runs on a pool as well

    # every preset; the survey shapes of perfbench are presets, its pool chunks 64 classes
    @pytest.mark.parametrize("r,n", sorted({(p.rank, p.elements) for p in PRESETS.values()}))
    @pytest.mark.parametrize("chunk_size", [DEFAULT_CHUNK_SIZE, 64])
    def test_full_width_runs_where_they_touch_fewest_rows(self, r, n, chunk_size):
        # as a range survey counts them, and as the whole space is counted
        assert _run_width(r, n, chunk_size) == n - r - 1
        assert _run_width(r, n, chunk_size, _counted(SurveyConfig(r, n, 1))[1]) == n - r - 1

    def test_shorter_runs_where_pairs_outnumber_rows(self, monkeypatch):
        # gathered rows plus pair unions per class are fewest at w = 7, not
        # 11; measured over the 2048 classes, w = 7 took 2.9 us per class
        # against 3.8 at w = 6 and 4.6 at w = 11
        assert _run_width(2, 14, DEFAULT_CHUNK_SIZE) == 7
        # with bits 0 and 1 fixed, as the whole space is counted, w = 8 took
        # 1.8 us per class against 2.3 at w = 7 and 1.9 at w = 9
        assert _run_width(2, 14, DEFAULT_CHUNK_SIZE, 2) == 8
        cfg = SurveyConfig(2, 14, 0)
        assert result_fingerprint(run_survey(cfg)) == self.mask_path(monkeypatch, cfg)


class TestSelfChecks:
    def write(self, path, cfg, cursor, hist, alternating):
        save_checkpoint(path, Checkpoint(_checkpoint_meta(cfg), cursor, Counter(hist), alternating))

    def test_histogram_short_of_completed_chunks_refused(self, tmp_path):
        # a cursor past the 16 classes that stand for the 64 of (4,7); a
        # 1-class histogram is not their result
        path = tmp_path / "short.ckpt.json"
        cfg = SurveyConfig(4, 7, 1, checkpoint_path=path)
        self.write(path, cfg, 16, {4: 1}, 4)
        with pytest.raises(
            CorruptCheckpointError,
            match=r"short.ckpt.json.*\[0,16\) fails histogram-total: 1 classes surveyed of 16$",
        ):
            run_survey(cfg)

    # chunks of 4 over [5, 14): chunk 1 holds 5..7, chunk 3 holds 12 and 13;
    # the cursor is where chunk ``chunk`` starts, or the range's end
    @pytest.mark.parametrize("chunk,classes", [(1, 0), (2, 3), (3, 7), (4, 9)])
    def test_histogram_must_total_the_classes_below_the_cursor(self, tmp_path, chunk, classes):
        path = tmp_path / "cut.ckpt.json"
        cfg = SurveyConfig(3, 6, 1, chunk_size=4, checkpoint_path=path, index_range=(5, 14))
        cursor = min(14, max(5, 4 * chunk))
        for wrong in (classes + 1, classes + 4):
            self.write(path, cfg, cursor, {2: wrong}, None)
            with pytest.raises(
                CorruptCheckpointError,
                match=rf"cut.ckpt.json.*\[5,{cursor}\) fails histogram-total: {wrong} classes surveyed of {classes}$",
            ):
                load_checkpoint(path)
        self.write(path, cfg, cursor, {2: classes} if classes else {}, None)
        assert load_checkpoint(path).next_index == cursor

    def test_chunk_id_past_the_last_chunk_refused(self, tmp_path):
        # (3,6) counts each of its 16 classes, so the cursor is at most 16
        path = tmp_path / "past.ckpt.json"
        cfg = SurveyConfig(3, 6, 1, chunk_size=4, checkpoint_path=path)
        self.write(path, cfg, 17, {2: 17}, 2)
        with pytest.raises(CorruptCheckpointError, match=r"past.ckpt.json.*next_index 17 .*\[0,16\]"):
            load_checkpoint(path)

    def test_checkpoint_directory_checked_before_counting(self, tmp_path, monkeypatch):
        path = tmp_path / "missing" / "cp.json"

        def fail(*args):
            raise AssertionError("counted before the checkpoint directory was checked")

        monkeypatch.setattr(survey_module, "_run_chunk", fail)
        monkeypatch.setattr(sign_core, "violation_table", fail)
        with pytest.raises(ValueError, match=f"checkpoint {re.escape(str(path))}: .* is not a directory"):
            run_survey(SurveyConfig(4, 8, 1, checkpoint_path=path))
        with pytest.raises(ValueError, match=f"checkpoint {re.escape(str(path))}"):
            verify_case("r4n8k1", checkpoint_path=path)
        assert not path.parent.exists()
        with pytest.raises(ValueError, match=f"checkpoint {re.escape(str(tmp_path))}: it is a directory"):
            run_survey(SurveyConfig(4, 8, 1, checkpoint_path=tmp_path))

    def test_checkpoint_temporary_directory_checked_before_counting(self, tmp_path, monkeypatch):
        # every write goes to the temporary file first, then is renamed
        path = tmp_path / "cp.json"
        (tmp_path / "cp.json.tmp").mkdir()
        monkeypatch.setattr(survey_module, "_run_chunk", lambda *args: pytest.fail("counted"))
        monkeypatch.setattr(sign_core, "violation_table", lambda *args: pytest.fail("built"))
        with pytest.raises(
            ValueError, match=f"checkpoint {re.escape(str(path))}: its temporary file .*cp.json.tmp is a directory"
        ):
            run_survey(SurveyConfig(4, 8, 1, checkpoint_path=path))
        assert not path.exists()

    def test_chunk_id_out_of_range_refused(self, tmp_path):
        # the cursor of a survey of [5, 14) is 5 to 14; 8.0 equals 8, but no
        # survey writes it
        path = tmp_path / "ids.ckpt.json"
        cfg = SurveyConfig(3, 6, 1, chunk_size=4, checkpoint_path=path, index_range=(5, 14))
        for cursor in [4, 15, -1, 8.0, True, "8", 7.5, None, [8]]:
            self.write(path, cfg, cursor, {2: 3}, None)
            with pytest.raises(
                CorruptCheckpointError,
                match=rf"ids.ckpt.json.*next_index {re.escape(repr(cursor))} .*\[5,14\]",
            ):
                load_checkpoint(path)

    def test_checkpoint_with_a_list_of_chunk_ids_refused(self, tmp_path):
        # chunk 0 of (3,6) at chunk size 4 done, as written before checkpoints
        # kept a cursor, and before the cursor was a class index
        path = tmp_path / "listed.ckpt.json"
        cfg = SurveyConfig(3, 6, 1, chunk_size=4, checkpoint_path=path)
        for chunks in ({"completed_chunks": [0]}, {"next_chunk": 1}):
            path.write_text(json.dumps({
                "meta": dict(_checkpoint_meta(cfg), chunk_size=4), **chunks,
                "partial_histogram": {"2": 4}, "partial_max": {"alternating_class_f": 2},
            }))
            for attempt in (lambda: load_checkpoint(path), lambda: run_survey(cfg)):
                with pytest.raises(
                    CorruptCheckpointError, match="listed.ckpt.json is not a survey checkpoint"
                ):
                    attempt()

    def test_frontier_checkpoint_loads_in_memory_of_its_completed_chunks(self, tmp_path):
        # half and nine tenths of the 2^33 classes of the prefix of (6,14),
        # 2^21 default-size chunks: the file and its load cost the same at
        # any progress
        path = tmp_path / "frontier.ckpt.json"
        cfg = SurveyConfig(6, 14, 2, checkpoint_path=path)
        for cursor in (1 << 32, 15 << 29):
            self.write(path, cfg, cursor, {2: cursor}, 2)
            tracemalloc.start()
            try:
                loaded = load_checkpoint(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert loaded.next_index == cursor
            assert path.stat().st_size < 1024
            assert peak < 1 << 20

    # json reads each of these, and int() took 4.9 as 4, true as 1 and "02" as 2
    @pytest.mark.parametrize(
        "histogram,alternating,message",
        [
            ({"2": 4.9}, None, r"histogram entries \{'2': 4.9\}"),
            ({"2": 4.0}, None, r"histogram entries \{'2': 4.0\}"),
            ({"2": True, "4": 3}, None, r"histogram entries \{'2': True\}"),
            ({"2": "4"}, None, r"histogram entries \{'2': '4'\}"),
            ({"2.5": 4}, None, r"histogram entries \{'2.5': 4\}"),
            ({"x": 4}, None, r"histogram entries \{'x': 4\}"),
            ({"02": 4}, None, r"histogram entries \{'02': 4\}"),
            ({"-2": 4}, None, r"histogram entries \{'-2': 4\}"),
            ({"2": 4}, "x", "alternating_class_f 'x' is not an integer"),
            ({"2": 4}, True, "alternating_class_f True is not an integer"),
            ({"2": 4}, 2.0, "alternating_class_f 2.0 is not an integer"),
        ],
        ids=[
            "fractional-count", "float-count", "boolean-count", "string-count",
            "fractional-f", "non-numeric-f", "zero-padded-f", "negative-f",
            "string-alternating-f", "boolean-alternating-f", "float-alternating-f",
        ],
    )
    def test_histogram_and_alternating_f_must_be_integers(
        self, tmp_path, histogram, alternating, message
    ):
        # classes 0..3 of (3,6) counted, class 0 among them; each value is
        # refused before the totals are checked
        path = tmp_path / "values.ckpt.json"
        cfg = SurveyConfig(3, 6, 1, chunk_size=4, checkpoint_path=path)
        path.write_text(json.dumps({
            "meta": _checkpoint_meta(cfg), "next_index": 4,
            "partial_histogram": histogram, "alternating_class_f": alternating,
        }))
        with pytest.raises(CorruptCheckpointError, match=rf"values.ckpt.json.*{message}"):
            load_checkpoint(path)
        with pytest.raises(CorruptCheckpointError, match="values.ckpt.json"):
            run_survey(cfg)

    # chunks is the range of classes counted: those of chunk 0, or none
    @pytest.mark.parametrize("chunks,hist,alternating", [(range(4), {2: 4}, None), (range(0), {}, 2)])
    def test_alternating_f_must_match_chunk_zero(self, tmp_path, chunks, hist, alternating):
        path = tmp_path / "alt.ckpt.json"
        cfg = SurveyConfig(3, 6, 1, chunk_size=4, checkpoint_path=path)
        self.write(path, cfg, chunks.stop, hist, alternating)
        with pytest.raises(CorruptCheckpointError, match="alt.ckpt.json.*alternating_class_f"):
            load_checkpoint(path)

    @pytest.mark.parametrize("text", ['{"meta": {"rank"', '{"meta": {}}', "[1, 2]"])
    def test_unreadable_checkpoint_named(self, tmp_path, text):
        path = tmp_path / "broken.ckpt.json"
        path.write_text(text)
        with pytest.raises(CorruptCheckpointError, match="broken.ckpt.json"):
            load_checkpoint(path)

    def test_survey_checks_its_histogram_total(self, monkeypatch):
        real = survey_module._run_chunk

        def lose_a_class(cfg, table, lo, hi):
            return real(cfg, table, lo, hi - 1)

        monkeypatch.setattr(survey_module, "_run_chunk", lose_a_class)
        # the whole-space survey of (3,7) takes its count of the prefix 4
        # times, and so the loss; (3,6) counts every class
        with pytest.raises(RuntimeError, match="self-check failed: histogram-total: 60 classes surveyed of 64$"):
            run_survey(SurveyConfig(3, 7, 1))
        with pytest.raises(RuntimeError, match="self-check failed: histogram-total: 15 classes surveyed of 16$"):
            run_survey(SurveyConfig(3, 6, 1))
        with pytest.raises(RuntimeError, match="self-check failed: histogram-total: 15 classes surveyed of 16$"):
            run_survey(SurveyConfig(3, 6, 1, index_range=(0, 16)))

    def test_survey_checks_its_histogram_parity(self, monkeypatch, capsys):
        # every f of (3,6) is 0 or 2, so one more is 1 or 3
        real = survey_module._run_chunk

        def one_more(cfg, table, lo, hi):
            hist, alternating = real(cfg, table, lo, hi)
            return Counter({f + 1: c for f, c in hist.items()}), alternating

        monkeypatch.setattr(survey_module, "_run_chunk", one_more)
        with pytest.raises(RuntimeError, match=r"self-check failed: histogram-parity: odd f values \[1, 3\]$"):
            run_survey(SurveyConfig(3, 6, 1))
        assert cli_main(["survey", "--rank", "3", "--elements", "6", "--k", "1"]) == 1
        assert capsys.readouterr().err == "error: survey self-check failed: histogram-parity: odd f values [1, 3]\n"

    @pytest.mark.parametrize("threads", [1, 2])
    def test_checkpoint_with_an_odd_f_refused_before_counting(self, tmp_path, monkeypatch, capsys, threads):
        # the first of the 16 default-size chunks of the prefix of (7,11,2):
        # its histogram totals the cursor, but one f is odd
        path = tmp_path / "odd.ckpt.json"
        cfg = SurveyConfig(7, 11, 2, threads=threads, checkpoint_path=path)
        self.write(path, cfg, 4096, {112: 1, 3: 1, 2: 4094}, 112)
        written = path.read_bytes()
        monkeypatch.setattr(survey_module, "_run_chunk", lambda *args: pytest.fail("counted"))
        monkeypatch.setattr(sign_core, "violation_table", lambda *args: pytest.fail("built"))
        with pytest.raises(
            CorruptCheckpointError,
            match=r"odd.ckpt.json is inconsistent: .*\[0,4096\) fails histogram-parity: odd f values \[3\]$",
        ):
            run_survey(cfg)
        code = cli_main([
            "survey", "--rank", "7", "--elements", "11", "--k", "2",
            "--threads", str(threads), "--checkpoint", str(path),
        ])
        err = capsys.readouterr().err
        assert code == 1 and str(path) in err and "histogram-parity" in err
        assert path.read_bytes() == written

    # (3,6) counts its 16 classes; in each list of batches one starts off the
    # cursor, which the batches before it leave at ``cursor``
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "jobs,bad,cursor",
        [
            ([(0, 4), (8, 16)], "[8,16)", 4),
            ([(0, 4), (4, 8), (12, 16), (8, 12)], "[12,16)", 8),
            ([(0, 8), (4, 12), (12, 16)], "[4,12)", 8),
        ],
        ids=["gap", "swapped", "overlap"],
    )
    def test_batch_off_the_cursor_refused(self, tmp_path, monkeypatch, pools, threads, jobs, bad, cursor):
        path = tmp_path / "order.ckpt.json"
        cfg = SurveyConfig(3, 6, 1, threads=threads, chunk_size=4, checkpoint_path=path)
        monkeypatch.setattr(survey_module, "_chunk_jobs", lambda cfg, next_index: jobs)
        with pytest.raises(RuntimeError, match=rf"^batch {re.escape(bad)} out of order at class {cursor}$"):
            run_survey(cfg)
        # the checkpoint keeps the last cursor reached in order, and its histogram
        loaded = load_checkpoint(path)
        assert loaded.next_index == cursor
        assert loaded.partial_histogram == _run_chunk(cfg, _survey_table(cfg, 16), 0, cursor)[0]
        assert pools == [2] * (threads > 1)

    def test_rank_one_rejected(self):
        with pytest.raises(ValueError, match="rank 1"):
            SurveyConfig(1, 4, 0)

    def test_survey_past_engine_width_refused(self):
        with pytest.raises(ValueError, match="n=24 elements, got n=40"):
            SurveyConfig(3, 40, 1, index_range=(0, 1))
        with pytest.raises(ValueError, match="n=62 elements, got n=63"):
            SurveyConfig(2, 63, 0, engine="travels", index_range=(0, 1))
        assert SurveyConfig(3, 40, 1, engine="travels", index_range=(0, 1)).elements == 40

    def test_empty_range_refused(self):
        with pytest.raises(ValueError, match=r"\[2,2\) holds no class"):
            SurveyConfig(3, 5, 1, index_range=(2, 2))

    @pytest.mark.parametrize("setting,value,message", [
        ("k", -1, "k must be non-negative, got k=-1"),
        ("threads", 0, "threads must be >= 1, got 0"),
        ("chunk_size", 0, "chunk size must be >= 1, got 0"),
        ("elements", 5.0, "elements must be an integer, got elements=5.0"),
        ("threads", 1.5, "threads must be an integer, got threads=1.5"),
        ("chunk_size", 2.5, "chunk_size must be an integer, got chunk_size=2.5"),
        ("k", 1.0, "k must be an integer, got k=1.0"),
        ("index_range", (0, 2.5), r"index_range must be two integers, got index_range=\(0, 2.5\)"),
        ("index_range", (0.0, 4), r"index_range must be two integers, got index_range=\(0.0, 4\)"),
        ("index_range", (0, 2, 4), r"index_range must be two integers, got index_range=\(0, 2, 4\)"),
    ])
    def test_bad_setting_named_with_its_value(self, setting, value, message):
        with pytest.raises(ValueError, match=message):
            SurveyConfig(**{"rank": 3, "elements": 5, "k": 1, setting: value})

    def test_numpy_integer_settings_accepted(self, tmp_path):
        # kept as ints, so that the checkpoint and the result are written as theirs
        path = tmp_path / "numpy.ckpt.json"
        cfg = SurveyConfig(
            np.int64(3), np.int32(5), np.int64(1), threads=np.int64(1), chunk_size=np.int16(2),
            index_range=(np.int64(0), np.uint8(4)), checkpoint_path=path,
        )
        assert {type(v) for v in (cfg.rank, cfg.elements, cfg.k, cfg.chunk_size, *cfg.index_range)} == {int}
        want = run_survey(SurveyConfig(3, 5, 1, index_range=(0, 4)))
        assert result_fingerprint(run_survey(cfg)) == result_fingerprint(want)
        assert load_checkpoint(path).next_index == 4

    def test_checkpoint_synced_before_rename(self, tmp_path, monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(os, "fsync", lambda fd: (events.append("fsync"), real_fsync(fd)))
        monkeypatch.setattr(
            os, "replace", lambda a, b: (events.append("replace"), real_replace(a, b))
        )
        path = tmp_path / "synced.ckpt.json"
        cfg = SurveyConfig(3, 5, 1, checkpoint_path=path)
        save_checkpoint(path, Checkpoint(_checkpoint_meta(cfg), 0, Counter(), None))
        assert events == ["fsync", "replace"]
        assert load_checkpoint(path).next_index == 0


class TestTravelsSurvey:
    """Whole-space surveys by the travels engine give the circuits engine's JSON."""

    @staticmethod
    def payload(cfg):
        d = run_survey(cfg).to_json_dict()
        del d["engine"], d["elapsed_seconds"]
        return d

    # the circuits engine counts one class in 16 and scales its histogram to
    # the whole space; the travels engine counts every class
    @pytest.mark.parametrize("r,n,k", [(4, 8, 1), (5, 8, 2), (3, 7, 1)])
    def test_matches_circuits(self, r, n, k):
        by_travels = self.payload(SurveyConfig(r, n, k, engine="travels"))
        assert by_travels == self.payload(SurveyConfig(r, n, k))

    @pytest.mark.skipif(
        os.environ.get("LOMLAB_LONG") != "1", reason="full survey; set LOMLAB_LONG=1 to run"
    )
    def test_full_r8n11k3(self):
        # a second full-survey engine behind the known red of criterion 2b
        by_travels = run_survey(SurveyConfig(8, 11, 3, engine="travels", threads=2))
        by_circuits = run_survey(SurveyConfig(8, 11, 3))
        assert by_travels.histogram == by_circuits.histogram
        assert by_travels.max_f == 22
        assert by_travels.maximizer_count_excluding_alternating == 255


class TestEngineCrosscheck:
    def test_exhaustive_tiny(self):
        report = engine_crosscheck(3, 5, 1, sample_size=99, seed=0)
        assert report.passed
        assert len(report.indices) == 4

    def test_sampled_4x7(self):
        report = engine_crosscheck(4, 7, 1, sample_size=100, seed=42)
        assert report.passed
        assert len(report.indices) == 64  # sample capped at the class count
        again = engine_crosscheck(4, 7, 1, sample_size=100, seed=42)
        assert again.indices == report.indices

    def test_sampled_large_class_space(self):
        # a small deterministic sample at survey scale
        report = engine_crosscheck(7, 11, 2, sample_size=3, seed=7)
        assert report.passed and len(report.indices) == 3

    def test_report_payload(self):
        payload = engine_crosscheck(3, 5, 0, sample_size=4, seed=1).to_json_dict()
        assert payload["passed"] is True
        assert payload["classes_checked"] == 4


class TestSweepIssues:
    """A failing class goes through the shared sweep into the report's dicts and lines."""

    def test_mismatch(self, monkeypatch):
        f_via_travels = travels_module.f_via_travels
        monkeypatch.setattr(travels_module, "f_via_travels", lambda A, k: f_via_travels(A, k) + 2)
        report = engine_crosscheck(3, 5, 1, sample_size=2, seed=0)
        assert not report.passed and report.issues is report.mismatches
        assert [list(m.items()) for m in report.mismatches] == [
            [("index", 1), ("circuits", 2), ("travels", 4)],
            [("index", 3), ("circuits", 2), ("travels", 4)],
        ]
        assert report.lines() == [
            "engine agreement check: rank 3, elements 5, k 1, 2 classes, seed 0",
            "mismatch: {'index': 1, 'circuits': 2, 'travels': 4}",
            "mismatch: {'index': 3, 'circuits': 2, 'travels': 4}",
            "result: FAIL (2 mismatches)",
        ]
        assert list(report.to_json_dict()) == [
            "rank", "elements", "k", "seed", "classes_checked", "passed", "mismatches",
        ]

    def test_violation(self, monkeypatch):
        # the count of the whole 3x5 table read 10 high, its minors' counts as they are
        count = sign_core.count_k_neighborly_reorientations_chirotope
        monkeypatch.setattr(
            sign_core,
            "count_k_neighborly_reorientations_chirotope",
            lambda T, k: count(T, k) + (10 if (T.rank, T.ground_size) == (3, 5) else 0),
        )
        report = minor_recursion_check(3, 5, 1, sample_size=1, seed=0)
        assert not report.passed and report.issues is report.violations
        assert [list(v.items()) for v in report.violations] == [
            [("index", 3), ("element", e), ("f", 12), ("f_contract", 0), ("f_delete", 6)]
            for e in range(1, 6)
        ]
        assert report.lines() == [
            "minor recursion check: rank 3, elements 5, k 1, 1 classes, seed 0",
            *(
                f"violation: {{'index': 3, 'element': {e}, 'f': 12, "
                "'f_contract': 0, 'f_delete': 6}"
                for e in range(1, 6)
            ),
            "result: FAIL (5 violations)",
        ]
        assert list(report.to_json_dict()) == [
            "rank", "elements", "k", "seed", "classes_checked", "passed", "violations",
        ]


class TestSampleIndices:
    def test_seeded_indices_are_pinned(self):
        # the indices a seed draws are part of a crosscheck's record
        assert _sample_indices(7, 11, 6, 0) == [21225, 135746, 201979, 212302, 220500, 254766]
        assert _sample_indices(7, 11, 6, 7) == [25315, 37977, 49351, 79088, 169781, 207001]

    def test_class_space_past_sys_maxsize(self):
        total = class_count(12, 24)
        assert total > sys.maxsize
        for seed in (0, 1):
            indices = _sample_indices(12, 24, 5, seed)
            assert indices == _sample_indices(12, 24, 5, seed)
            assert indices == sorted(set(indices)) and len(indices) == 5
            assert all(0 <= i < total for i in indices)
        assert _sample_indices(12, 24, 5, 0) != _sample_indices(12, 24, 5, 1)


class TestMinorRecursion:
    def test_exhaustive_3x6(self):
        report = minor_recursion_check(3, 6, 1, sample_size=16, seed=0)
        assert report.passed and len(report.indices) == 16

    def test_sampled_4x7(self):
        for k in (0, 1):
            report = minor_recursion_check(4, 7, k, sample_size=50, seed=1)
            assert report.passed and len(report.indices) == 50

    def test_preconditions(self):
        with pytest.raises(ValueError):
            minor_recursion_check(2, 6, 1, 4, 0)
        with pytest.raises(ValueError):
            minor_recursion_check(4, 5, 1, 4, 0)


class TestBoundCompliance:
    @pytest.mark.parametrize("r,n,k", [(4, 7, 1), (4, 8, 1)])
    def test_every_class_respects_both_bounds(self, r, n, k):
        from lomlab.formulas import asymptotic_bound, lom_upper_bound

        travel_bound = lom_upper_bound(r, n, k)  # n >= 2r-1 at both sizes
        growth_bound = asymptotic_bound(r, n, k)  # r = 2k+2
        result = run_survey(SurveyConfig(r, n, k))
        assert result.max_f <= travel_bound
        assert result.max_f <= growth_bound


class TestResultJson:
    def test_key_order_and_stability(self):
        result = run_survey(SurveyConfig(3, 5, 1))
        payload = result.to_json_dict()
        assert list(payload) == [
            "rank",
            "elements",
            "k",
            "engine",
            "class_count",
            "c_value",
            "c_source",
            "max_f",
            "maximizer_count_total",
            "maximizer_count_excluding_alternating",
            "alternating_class_f",
            "histogram",
            "elapsed_seconds",
            "encoding_version",
        ]
        again = run_survey(SurveyConfig(3, 5, 1))
        assert result_fingerprint(result) == result_fingerprint(again)

    def test_readme_lists_the_stable_fields(self):
        # "name (note)" items split at the commas outside the notes; a note
        # that names --range marks a field only a range survey has
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        listed = re.search(r"The result JSON fields are stable:(.*?)\.\s", readme, re.S).group(1)
        only_in_a_range = {}
        for item in re.split(r",(?![^(]*\))", " ".join(listed.split())):
            name, _, note = item.strip().removeprefix("and ").partition(" ")
            only_in_a_range[name] = "--range" in note
        whole = run_survey(SurveyConfig(3, 5, 1)).to_json_dict()
        ranged = run_survey(SurveyConfig(3, 5, 1, index_range=(1, 3))).to_json_dict()
        assert set(whole) == {name for name, ranged_only in only_in_a_range.items() if not ranged_only}
        assert set(ranged) == set(only_in_a_range)

    def test_histogram_sorted_by_f(self):
        payload = run_survey(SurveyConfig(4, 7, 1)).to_json_dict()
        fs = [entry["f"] for entry in payload["histogram"]]
        assert fs == sorted(fs)
        assert sum(entry["classes"] for entry in payload["histogram"]) == 64
