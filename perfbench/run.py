"""rigraph benchmark: one command, three seeded workloads, checked outputs.

    python3 perfbench/run.py --workload zero_one_sweep --seed 1 --seconds 30 --trace 0

Runs fresh-process repetitions of the workload (``rep.py``) one after
another until ``--seconds`` have passed, prints every metric by name with its
unit and sample count, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates plain and traced repetitions and
reports the per-layer metrics, ``trace.overhead_frac`` included.  The
repetitions, with their spans, are written to
``.perfbench/{run,trace}-<workload>-seed<seed>.json``.

Exit status: 0 when every call and check passed, 1 when any failed, 2 when
the rigraph sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibration import REF_MS  # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOADS, end_to_end, layer_metrics, ref_scale  # noqa: E402

MIN_PLAIN_REPS = 3  # setup_s is a median over repetitions
TOTAL_LIMIT_S = 170.0  # the whole command must end well within 180 s

# Wall-clock twins of the scaled metrics, under the names the workloads'
# users know them by: (name, unit, factor from wall milliseconds or 1/s).
WALL = {
    "zero_one_sweep": {"throughput_per_ref_s": ("trials_per_s", "1/s", 1.0),
                       "call_ref_ms_p50": ("sweep_s", "s", 1e-3),
                       "call_ref_ms_p90": ("sweep_s_p90", "s", 1e-3)},
    "tiny_graph_trials": {"throughput_per_ref_s": ("trials_per_s", "1/s", 1.0),
                          "call_ref_ms_p50": ("run_trials_ms_p50", "ms", 1.0),
                          "call_ref_ms_p90": ("run_trials_ms_p90", "ms", 1.0)},
    "ring_solve": {"throughput_per_ref_s": ("queries_per_s", "1/s", 1.0),
                   "call_ref_ms_p50": ("query_ms_p50", "ms", 1.0),
                   "call_ref_ms_p90": ("query_ms_p90", "ms", 1.0)},
}


class RepFailed(RuntimeError):
    pass


def run_rep(workload: str, seed: int, mode: str, workers: int, workdir: Path, timeout: float) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed),
         "--mode", mode, "--workers", str(workers), "--t0", repr(t0), "--workdir", str(workdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RepFailed(f"{mode} repetition exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rigraph" / "__init__.py").is_file():
        print(f"perfbench: no rigraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    workers = min(2, nproc)
    if not 1 <= workers <= nproc:
        raise RuntimeError(f"pool of {workers} workers exceeds nproc={nproc}")
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)

    start = time.monotonic()
    reps: dict[str, list[dict]] = {"plain": [], "traced": [], "reference": []}

    def rep(mode: str) -> None:
        remaining = max(1.0, TOTAL_LIMIT_S - (time.monotonic() - start))
        reps[mode].append(run_rep(args.workload, args.seed, mode, workers, workdir, remaining))

    try:
        while True:
            rep("plain")
            if args.trace:
                rep("traced")
            elapsed = time.monotonic() - start
            if elapsed >= args.seconds and (args.trace or len(reps["plain"]) >= MIN_PLAIN_REPS):
                break
        if args.trace:
            layers = layer_metrics(reps["traced"])
            if set(PER_LAYER) - set(layers) - {"trace.overhead_frac"}:
                rep("reference")
    except (RepFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    all_reps = [r for rs in reps.values() for r in rs]
    env = all_reps[0]["env"]
    calls = [c for r in all_reps for c in r["calls"]]
    check_results = [c for r in all_reps for c in r["checks"]]
    errors = [c["error"] for c in calls if not c["ok"]] + [c for c in check_results if c]
    attempted = len(calls) + len(check_results)
    failed = len(errors)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} workers={workers} "
          f"nproc={env['nproc']} cpu={env['cpu']!r} caches={env['caches']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']}")
    print(f"  repetitions: {len(reps['plain'])} plain, {len(reps['traced'])} traced, "
          f"{len(reps['reference'])} reference")
    for e in errors:
        print(f"  FAILED: {e}")

    reported: dict[str, dict] = {}
    scaled = end_to_end(reps["plain"])
    wall = end_to_end(reps["plain"], scaled=False)
    cal = statistics.fmean(c for r in reps["plain"] for c in r["cal_ms"])
    print(f"end-to-end (plain repetitions; ref_ms = wall ms x {REF_MS:g} / calibration kernel ms, "
          f"kernel mean {cal:.4g} ms):")
    for name, (value, count) in scaled.items():
        unit = END_TO_END[name][0]
        twin = WALL[args.workload].get(name)
        also = f"   wall: {twin[0]} = {wall[name][0] * twin[2]:.6g} {twin[1]}" if twin else ""
        print(f"  {name:38s} {value:14.6g} {unit:7s} n={count}{also}")
        if not args.trace:
            reported[name] = {"value": value, "unit": unit}
    print(f"  {'failed_frac':38s} {failed / attempted:14.6g} {'ratio':7s} n={attempted}")

    if args.trace:
        own = layer_metrics(reps["traced"])
        ref = layer_metrics(reps["reference"]) if reps["reference"] else {}
        def call_ref_ms(mode: str) -> float:
            return statistics.fmean(sum(c["ms"] for c in r["calls"]) * ref_scale(r) for r in reps[mode])

        own["trace.overhead_frac"] = (call_ref_ms("traced") / call_ref_ms("plain") - 1.0, len(reps["traced"]))
        print("per-layer (traced repetitions; '*' = measured on the reference instances):")
        for name, (unit, _, moves) in PER_LAYER.items():
            value, count = own[name] if name in own else ref[name]
            mark = " " if name in own else "*"
            print(f" {mark}{name:38s} {value:14.6g} {unit:7s} n={count}  moves: {moves}")
            reported[name] = {"value": value, "unit": unit}

    record = workdir / f"{'trace' if args.trace else 'run'}-{args.workload}-seed{args.seed}.json"
    record.write_text(json.dumps({"env": env, "metrics": reported, "reps": reps}))
    print(f"  repetitions{' and spans' if args.trace else ''} written to {record.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
