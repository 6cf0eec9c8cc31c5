"""One repetition of a workload, in a fresh process.

Run by ``run.py``; prints one JSON object on stdout.  Modes:

* ``plain``: the workload's calls, timed, then checked;
* ``traced``: the same calls with spans, then the layer split of the
  trials (1 worker, W workers, and a trial-by-trial replay whose counts must
  equal ``run_trials``' exactly);
* ``reference``: ``traced`` on small instances that reach every layer.

A fresh process per repetition gives every repetition the same cold
``lru_cache`` state (``b_vector``, ``_sampling_consts``, ``_fingerprint``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import calibration  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _timed_pass(wl, tracer: Tracer | None) -> tuple[list[dict], list, list[float]]:
    """Issue the workload's calls one after another, timing each, with
    calibration samples before, between (every ``CAL_EVERY_S`` of call
    time) and after them."""
    calls, outputs = [], []
    cal_ms = [calibration.sample_ms()]
    since_cal = 0.0
    for i in range(len(wl)):
        if since_cal >= calibration.CAL_EVERY_S:
            cal_ms.append(calibration.sample_ms())
            since_cal = 0.0
        t = time.perf_counter()
        try:
            out = wl.call(i) if tracer is None else wl.traced_call(i, tracer)
            error = None
        except Exception as exc:  # a failed call is counted, not fatal
            out, error = None, f"call {i}: {type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - t) * 1e3
        since_cal += ms / 1e3
        calls.append({"ms": ms, "work": wl.work(i), "ok": error is None, "error": error})
        outputs.append(out)
    cal_ms.append(calibration.sample_ms())
    return calls, outputs, cal_ms


def _check(wl, calls: list[dict], outputs: list) -> list[dict]:
    """Check outputs after the timed pass, so checks neither take time from
    the calls nor touch the caches the calls are measured with."""
    for i, (call, out) in enumerate(zip(calls, outputs)):
        if call["ok"]:
            failures = wl.check(i, out)
            if failures:
                call["ok"], call["error"] = False, f"call {i}: " + "; ".join(failures)
    return calls


def _layer_split(wl, tracer: Tracer, workers: int) -> list[str | None]:
    """Each batch on 1 worker, the same trials on W workers, and the replay;
    returns one entry per equivalence check, None where it passed."""
    results: list[str | None] = []
    parallel = workloads.spanned_run_trials(tracer, "parallel", [])
    for u, unit in enumerate(wl.serial_units(tracer, results)):
        parallel(unit.params, unit.trials, unit.master_seed, workers)
        results.append(workloads.replay_mismatch(unit.agg, workloads.replay(tracer, unit, u)))
    return results


def _traced(wl, tracer: Tracer, workers: int) -> dict:
    before = workloads.bvector_lookups()
    calls, outputs, cal_ms = _timed_pass(wl, tracer)
    after = workloads.bvector_lookups()
    return {
        "calls": _check(wl, calls, outputs),
        "cal_ms": cal_ms,
        "checks": _layer_split(wl, tracer, workers),
        "counters": {"b_vector_hits": after[0] - before[0], "b_vector_misses": after[1] - before[1]},
    }


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    caches = []
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches.append(f"L{level}{'' if kind == 'Unified' else kind[0].lower()}={size}")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.machine(),
        "caches": ",".join(caches),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("plain", "traced", "reference"))
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    workdir = tempfile.mkdtemp(prefix="rep-", dir=args.workdir)
    try:
        if args.mode == "reference":
            wls = workloads.reference_workloads(args.seed, workdir, args.workers)
        else:
            wls = [workloads.WORKLOADS[args.workload](args.seed, workdir, args.workers)]
        setup_s = time.monotonic() - args.t0
        if args.mode == "plain":
            calls, outputs, cal_ms = _timed_pass(wls[0], None)
            result = {"calls": _check(wls[0], calls, outputs), "cal_ms": cal_ms, "checks": []}
        else:
            tracer = Tracer()
            parts = [_traced(wl, tracer, args.workers) for wl in wls]
            result = {
                "calls": [c for p in parts for c in p["calls"]],
                "checks": [c for p in parts for c in p["checks"]],
                "cal_ms": [c for p in parts for c in p["cal_ms"]],
                "counters": {k: sum(p["counters"][k] for p in parts) for k in parts[0]["counters"]},
                "spans": tracer.spans,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(setup_s=setup_s, rss_mb=(own + child) / 1024.0, env=environment())
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
