"""rislab benchmark: one workload per call, or all of them.

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root; rislab is imported from ./src. The process
pins BLAS to one thread in its own environment before numpy loads. A run
repeats whole rounds of its workload's fixed work until --seconds have
passed, checks every round's outputs, and prints as its last line one JSON
object: correct, attempted, failed and metrics. With --trace 0 the metrics
are the end-to-end ones (timings with tracing off); with --trace 1 every
round runs twice from the same inputs, once traced and once not, and the
metrics are per-layer figures per traced round, plus the tracing
overhead. Spans of a traced run are written to perfbench/out/ when it
ends.

End-to-end times are in reference-speed seconds: wall time scaled by
calibrate.NOMINAL_S over the wall time of a fixed calibration loop run right
before and after. The host's speed drifts by up to 2x over tens of
seconds, and the scaling cancels that drift; README.md gives the figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calibrate  # noqa: E402  (loads numpy, so only after the pinning above)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("train_desk", "rollout_desk", "sweep_paper", "toy_exact")
SETUP_REPEATS = 5

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import rislab.cli; "
                 "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Wall time of `import rislab.cli` (numpy included) in a fresh
    interpreter."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def setup_seconds(wl) -> tuple[float, float]:
    """Package import plus workload construction, tried SETUP_REPEATS times
    between calibrations: the medians of (reference-speed seconds, wall
    seconds) over the tries."""
    scaled, wall = [], []
    cal = calibrate.calibration_seconds()
    for r in range(SETUP_REPEATS):
        t = import_seconds()
        t0 = time.perf_counter()
        wl.build(r)
        t += time.perf_counter() - t0
        cal_before, cal = cal, calibrate.calibration_seconds()
        wall.append(t)
        scaled.append(t * calibrate.NOMINAL_S * 2 / (cal_before + cal))
    return statistics.median(scaled), statistics.median(wall)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def round_peak_mb(wl) -> float:
    """Peak of the memory allocated by round 0's timed work, run once more
    untimed under tracemalloc: the program's own memory, without the
    interpreter and numpy that make up most of the RSS. tracemalloc slows
    the work 5 to 7 times, so only the traced run takes this figure."""
    ctx = wl.build(0)
    gc.collect()
    tracemalloc.start()
    try:
        for chunk in wl.chunks(ctx):
            chunk()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def run_round(wl, ctx, tracer=None):
    """Run one round's chunks, timing each and calibrating before and after
    each. Returns (output, wall seconds, reference-speed seconds per chunk).
    A tracer gets each chunk's factor, to report its spans at that speed."""
    wall, chunk_s = 0.0, []
    cal = calibrate.calibration_seconds(wl.mix)
    for chunk in wl.chunks(ctx):
        t0 = time.perf_counter()
        out = chunk()
        dt = time.perf_counter() - t0
        cal_before, cal = cal, calibrate.calibration_seconds(wl.mix)
        scale = calibrate.NOMINAL_S * 2 / (cal_before + cal)
        wall += dt
        chunk_s.append(dt * scale)
        if tracer:
            tracer.end_chunk(scale, dt)
    return out, wall, chunk_s


def measure(wl, seconds: float, tracer=None) -> dict:
    """Rounds until `seconds` have passed (at least one). With a tracer,
    each round runs twice from the same inputs, traced and untraced in
    alternating order, so the two times differ by the tracing alone.
    Returns the untraced rounds' times (wall and reference-speed), the
    traced-over-untraced ratio of each pair, failures, and the named
    figures of every untraced round."""
    plain, wall, info, counts, ratios = [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        passes = (False,) if tracer is None else ((False, True), (True, False))[r % 2]
        times = {}
        for traced in passes:
            ctx = wl.build(r)
            wl.before(ctx)
            gc.collect()  # so no round pays for collecting an earlier round's garbage
            if traced:
                with tracer.installed():
                    out, _, chunk_s = run_round(wl, ctx, tracer)
                counts.append(wl.counts(out))
            else:
                out, dt, chunk_s = run_round(wl, ctx)
                plain.append(sum(chunk_s))
                wall.append(dt)
                figures = wl.info(ctx, out, chunk_s)
                if wl.op:
                    figures[f"{wl.op}_per_s"] = (wl.ops / sum(chunk_s), f"{wl.op}/s")
                info.append(figures)
            times[traced] = sum(chunk_s)
            bad = wl.check(ctx, out)
            attempted += wl.ops
            if bad:
                failed += wl.ops
                for msg in bad:
                    print(f"check failed: {wl.name} round {r}: {msg}", file=sys.stderr)
        if tracer:
            ratios.append(times[True] / times[False])
        r += 1
    return {"plain": plain, "wall": wall, "ratios": ratios, "attempted": attempted,
            "failed": failed, "info": info, "counts": counts}


def end_to_end(result, setup_s: float) -> dict:
    return {"setup_s": {"value": setup_s, "unit": "s"},
            "round_s": {"value": statistics.mean(result["plain"]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"}}


def per_layer(result, tracer, round_mb: float) -> dict:
    rounds = len(result["counts"])
    units = {"calls": "count", "rows": "count", "trajectories": "count",
             "s": "s", "self_s": "s"}
    metrics = {name: {"value": value, "unit": units[name.rsplit(".", 1)[1]]}
               for name, value in tracer.layer_metrics(rounds).items()}
    replay = [c.get("training.replay_size", 0) for c in result["counts"]]
    metrics["training.replay_size"] = {"value": sum(replay) / rounds, "unit": "count"}
    metrics["memory.round_peak_mb"] = {"value": round_mb, "unit": "MB"}
    overhead = statistics.median(result["ratios"]) - 1.0
    metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
    metrics["trace.own_pct"] = {"value": 100.0 * tracer.own_s / tracer.chunk_wall_s,
                                "unit": "%"}
    return metrics


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from spans import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed)
    setup_s, setup_wall = setup_seconds(wl)
    tracer = Tracer() if trace else None
    result = measure(wl, seconds, tracer)
    for key in sorted(result["info"][0]) if result["info"] else []:
        unit = result["info"][0][key][1]
        value = statistics.median(f[key][0] for f in result["info"])
        print(f"{name} {key} {value:.6g} {unit}")
    print(f"{name} round_wall_s {statistics.mean(result['wall']):.6g} s")
    print(f"{name} setup_wall_s {setup_wall:.6g} s")
    if trace:
        metrics = per_layer(result, tracer, round_peak_mb(wl))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{name}-seed{seed}.json")
    else:
        metrics = end_to_end(result, setup_s)
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    summary = {}
    for name in NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        for line in lines[:-1]:
            print(line)
        res = json.loads(lines[-1])
        summary[name] = res
        print(f"{name} attempted {res['attempted']} failed {res['failed']}")
        for key, m in res["metrics"].items():
            print(f"{name} {key} {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0 if all(r["correct"] for r in summary.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rislab").is_dir():
        print(f"rislab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    print(json.dumps(run_one(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
