"""lomlab benchmark: end-to-end metrics per workload, per-layer metrics traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload survey-serial --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload fcount-large --seed 1 --seconds 28 --trace 1
    python3 perfbench/run.py --workload survey-serial --seed 1 --seconds 1 --trace 0 --quick

One run measures one workload in this (fresh) interpreter, importing lomlab
from ``src/`` next to this directory.  It repeats the workload's timed pass
until the next pass would end after ``--seconds``, times each library call of
a pass against a fixed reference computation (see speed.py), checks every
output, and prints two JSON lines: a detailed report (inputs, machine facts,
samples, checks, trace) and, last, the result ``{"correct", "attempted",
"failed", "metrics"}``.  With ``--trace 0`` the metrics are the end-to-end
ones; with ``--trace 1`` one more pass runs with spans around lomlab's layer
boundaries and the metrics are the per-layer ones.  See README.md in this
directory.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 11       # fresh interpreters per run; setup_s is their median
SETUP_PROBES_QUICK = 2
PROBE_TIMEOUT_S = 60

LIMITS = [
    "nproc cores shared with other tenants; no CPU pinning, no page-cache dropping "
    "(machine settings are off-limits)",
    "peak_rss_mb covers only this process and its own children (set-up probes, pool workers)",
    "numba is absent: lomlab._fast never runs, every count takes the numpy path",
    "pool spans cover the parent side only: workers fork after the wrappers are installed",
    "norm_* metrics assume a workload and its speed reference (speed.py) slow down alike "
    "under the host's contention; wall_s in the report is the raw time",
    "count-scan memory: at (7,20,2) the block is 125970 circuits x 8192 x 4 B = 4.1 GB and "
    "the process was killed on an 8 GB machine; (5,20,1) took 82 s. Not a workload: "
    "sign_core.block_bytes and peak_rss_mb on fcount-large show the growth at the sizes run",
]


def import_lomlab():
    """Import lomlab from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    spec = importlib.util.find_spec("lomlab")
    if spec is None or spec.origin is None or Path(spec.origin).resolve().parent.parent != SRC:
        sys.exit(f"error: lomlab sources not found under {SRC}")
    import lomlab

    return lomlab


def timed_pass(wl, p: int, probe) -> tuple[dict, list]:
    """Run pass ``p`` call by call under the speed probe (see speed.py).

    Returns the pass's net and normalised seconds, with each call's net
    seconds and in-call reference runs, and the calls' outputs."""
    from workloads import attempt

    sample = {"key": wl.pass_key(p), "raw_s": 0.0, "norm_s": 0.0, "calls_s": {}, "ref_runs": 0}
    outputs = []
    for label, call in wl.pass_steps(p):
        out, net, norm, runs = probe.time_call(lambda: attempt(call), wl.in_process)
        sample["raw_s"] += net
        sample["norm_s"] += norm
        sample["calls_s"][label] = net
        sample["ref_runs"] += runs
        outputs.append((label, out))
    sample["ref_s"] = probe.latest
    return sample, outputs


def clear_lomlab_caches() -> None:
    """Empty lomlab's in-process caches, so every pass pays what one CLI call pays."""
    for name, module in list(sys.modules.items()):
        if name == "lomlab" or name.startswith("lomlab."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                    value.cache_clear()


def machine_facts() -> dict:
    import numpy

    u = os.uname()
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "os": f"{u.sysname} {u.release} {u.machine}",
    }


def percentile_summary(samples: list[float]) -> dict:
    """Median with sample count, plus the highest of p90/p99/p99.9 that has
    at least ten samples beyond it (None when there are too few samples)."""
    n = len(samples)
    out = {"n": n, "median": statistics.median(samples), "tail": None}
    ordered = sorted(samples)
    for p in (99.9, 99, 90):
        if n * (100 - p) / 100 >= 10:
            out["tail"] = {"p": p, "value": ordered[min(n - 1, int(n * p / 100))]}
            break
    return out


def measure_setup(workload: str, quick: bool, seed: int) -> tuple[list[float], list[str]]:
    samples, errors = [], []
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    if quick:
        cmd.append("--quick")
    for _ in range(SETUP_PROBES_QUICK if quick else SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        try:
            samples.append(float(proc.stdout.strip().splitlines()[-1]))
        except (IndexError, ValueError):
            errors.append(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return samples, errors


class Ledger:
    """Every checked operation of a run; failed ones keep their reasons."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failures: list[dict] = []

    def record(self, outputs) -> None:
        from workloads import Failed

        for label, out in outputs:
            self.attempted += 1
            if isinstance(out, Failed):
                self.failures.append({"op": label, "exception": out.text, "trace": out.trace})
                continue
            try:
                problems = self.workload.check(label, out)
            except Exception as exc:  # a check that cannot run counts as a failure
                problems = [f"check raised {exc!r}"]
            if problems:
                self.failures.append({"op": label, "problems": problems})

    def error(self, label: str, text: str) -> None:
        self.attempted += 1
        self.failures.append({"op": label, "problems": [text]})


def layer_metrics(tracer, layers: dict, wl, untraced_s: float, traced_s: float) -> dict:
    def get(name, field="self_s"):
        return layers.get(name, {}).get(field, 0)

    def per(value, calls, scale=1.0):
        return value / calls * scale if calls else 0.0

    rep_calls, rep_s = get("chessboard.representative", "calls"), get("chessboard.representative")
    mask_calls, mask_s = get("sign_core.masks", "calls"), get("sign_core.masks")
    count_s = get("sign_core.count")
    pairs = tracer.counts["count_pairs"]
    f_calls = get("travels.f", "calls")
    f_total = get("travels.f", "total_s")
    serial_s = wl.extra().get("serial_reference_s")
    return {
        "chessboard.representative_calls": (rep_calls, "count"),
        "chessboard.representative_s": (rep_s, "s"),
        "chessboard.representative_us_per_class": (per(rep_s, rep_calls, 1e6), "us"),
        "sign_core.masks_calls": (mask_calls, "count"),
        "sign_core.masks_s": (mask_s, "s"),
        "sign_core.masks_us_per_class": (per(mask_s, mask_calls, 1e6), "us"),
        "sign_core.count_calls": (get("sign_core.count", "calls"), "count"),
        "sign_core.count_s": (count_s, "s"),
        "sign_core.count_pairs": (pairs, "count"),
        "sign_core.count_pairs_per_s": (per(pairs, count_s), "1/s"),
        "sign_core.block_bytes": (tracer.maxima["block_bytes"], "B"),
        "sign_core.context_s": (get("sign_core.context"), "s"),
        "survey.chunks": (get("survey.merge", "calls"), "count"),
        "survey.merge_s": (get("survey.merge"), "s"),
        "survey.checkpoint_writes": (get("survey.checkpoint_write", "calls"), "count"),
        "survey.checkpoint_write_s": (get("survey.checkpoint_write"), "s"),
        "survey.checkpoint_bytes_written": (tracer.counts["checkpoint_bytes_written"], "B"),
        "survey.checkpoint_read_s": (get("survey.checkpoint_read"), "s"),
        "survey.pool_speedup": (serial_s / untraced_s if serial_s else 0.0, "ratio"),
        "travels.f_calls": (f_calls, "count"),
        "travels.s_per_class": (per(f_total, f_calls), "s"),
        "travels.plain_travels_per_s": (per(tracer.counts["plain_travels"], f_total), "1/s"),
        "formulas.c_value_s": (get("formulas.c_value", "total_s"), "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny shapes: every code path and check, in seconds")
    args = ap.parse_args(argv)

    import_lomlab()
    sys.path.insert(0, str(HERE))
    import speed
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    shapes = workloads.QUICK if args.quick else workloads.FULL
    workdir = ROOT / ".bench_build" / "perfbench"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, shapes, workdir)
    ledger = Ledger(wl)
    machine = machine_facts()  # before any large allocation: forked children inherit peak RSS

    setup_samples: list[float] = []
    if not args.trace:
        setup_samples, errors = measure_setup(args.workload, args.quick, args.seed)
        for text in errors:
            ledger.error("set-up probe", text)

    samples: list[dict] = []
    tracer = None
    try:
        ledger.record(wl.prepare())
        probe = speed.SpeedProbe(wl.speed_reference)
        probe.burst()  # warm-up: the first runs are slower
        probe.burst()
        start = time.perf_counter()
        p = 0
        while True:
            clear_lomlab_caches()
            t0 = time.perf_counter()
            sample, outputs = timed_pass(wl, p, probe)
            dt = time.perf_counter() - t0
            samples.append(sample)
            ledger.record(outputs)
            p += 1
            if time.perf_counter() - start + dt > args.seconds:
                break
        if args.trace:
            clear_lomlab_caches()
            tracer = Tracer()
            tracer.install()
            try:
                t0 = time.perf_counter()
                with tracer.span("bench.pass"):
                    outputs = [(label, workloads.attempt(call))
                               for label, call in wl.pass_steps(0)]
                traced_s = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            ledger.record(outputs)
        ledger.record(wl.post())
    finally:
        wl.cleanup()

    walls = [s["raw_s"] for s in samples]
    wall = percentile_summary(walls)
    norm_wall = percentile_summary([s["norm_s"] for s in samples])
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": "quick" if args.quick else "full",
        "trace": args.trace,
        "inputs": wl.inputs(),
        "machine": machine,
        "limits": LIMITS,
        "wall_s": wall,
        "norm_wall_s": norm_wall,
        "reference": {"name": wl.speed_reference,
                      "nominal_s": speed.REFERENCES[wl.speed_reference][1],
                      "burst": speed.REF_BURST, "interval_s": speed.REF_INTERVAL_S,
                      "in_calls": wl.in_process},
        "pass_samples": samples,
        "setup_samples_s": setup_samples,
        "extra": wl.extra(),
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "fail_ratio": len(ledger.failures) / ledger.attempted,
        "failures": ledger.failures,
    }
    if args.trace:
        untraced = statistics.median(s["raw_s"] for s in samples if s["key"] == wl.pass_key(0))
        layers = tracer.layers()
        metrics = layer_metrics(tracer, layers, wl, untraced, traced_s)
        core = sum(
            layers.get(name, {}).get("self_s", 0.0)
            for name in ("chessboard.representative", "sign_core.masks",
                         "sign_core.count", "sign_core.context")
        )
        detail["trace_detail"] = {
            "layers": layers,
            "spans": len(tracer.spans),
            "unwrapped": tracer.missing,
            "untraced_pass_s": untraced,
            "traced_pass_s": traced_s,
            # traced self time over the untraced pass: the traced pass's own
            # overhead and the machine's drift between the two move it
            "chessboard_sign_core_share_of_untraced_wall": core / untraced,
            "chessboard_sign_core_share_of_traced_pass": core / traced_s,
        }
    else:
        rss_self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        detail["peak_rss_self_mb"] = rss_self_kb / 1024
        detail["peak_rss_children_mb"] = rss_children_kb / 1024
        metrics = {
            "norm_wall_s": (norm_wall["median"], "s"),
            "norm_classes_per_s": (wl.classes_per_pass / norm_wall["median"], "1/s"),
            "setup_s": (statistics.median(setup_samples) if setup_samples else 0.0, "s"),
            "peak_rss_mb": ((rss_self_kb + rss_children_kb) / 1024, "MB"),
        }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
