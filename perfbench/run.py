"""poolkey benchmark: the CLI stages end to end, and per layer when traced.

    python3 perfbench/run.py --workload eval-noisy --seed 0 --seconds 15 --trace 0

Run it from the root of a checkout. Workloads, metric names and units come
from BENCHMARK.json next to ``perfbench/``; perfbench/README.md describes
them. Each run sets the workload up three times in fresh processes
(``setup_s`` is the median), then times the workload in another fresh
process with tracing off. ``--trace 1`` adds a traced process and reports
the per-layer metrics instead of the end-to-end ones. The last line of
stdout is one JSON object; the lines before it name every metric with its
unit, the sample counts, the environment and each failed check. The exit
code is 0 only if every output check passed. ``--smoke`` runs each workload
at a tiny size.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
DEFAULT_SEED = 0  # the seed whose output digests are pinned in digests.json
SETUPS = 3
RUN_BUDGET_S = 175.0


def _child(argv: list[str], deadline: float) -> tuple[float, str]:
    """Run worker.py to completion; return its wall time and stdout."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *argv],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"worker {argv[0]} exited {done.returncode}")
    return elapsed, done.stdout


def _environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown: the checkout is not a git repository"
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    return {"nproc": os.cpu_count(), "cpu": cpu, "commit": commit,
            "POOL_THREADS": "cleared"}


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles gives it (n=100)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def _end_to_end(untraced: dict, setup_s: float) -> dict:
    return {
        "frames_per_s": untraced["frames"] / untraced["measured_s"],
        "frame_ms_p50": _percentile(untraced["frame_ms"], 50),
        "frame_ms_p90": _percentile(untraced["frame_ms"], 90),
        "peak_rss_mb": untraced["maxrss_kb"] / 1024.0,
        "setup_s": setup_s,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_layer(names: list[str], untraced: dict, traced: dict) -> dict:
    spans = traced["spans"]
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    traced_per_frame = traced["measured_s"] / traced["frames"]
    untraced_per_frame = untraced["measured_s"] / untraced["frames"]
    derived = {
        "cli.self_s": spans.get("cli.main", zero)["self_s"],
        "heatmap.decode.kept_frac": _ratio(
            spans.get("heatmap.decode", {}).get("kept", 0),
            spans.get("heatmap.decode", {}).get("channels", 0)),
        "homography.localize_frame.inlier_frac": _ratio(
            spans.get("homography.localize_frame", {}).get("inliers", 0),
            spans.get("homography.localize_frame", {}).get("correspondences", 0)),
        "trace.frames": traced["frames"],
        "trace.untraced_frames": untraced["frames"],
        "trace.traced_s_per_frame": traced_per_frame,
        "trace.untraced_s_per_frame": untraced_per_frame,
        "trace.overhead_frac": traced_per_frame / untraced_per_frame - 1.0,
    }
    metrics = {}
    for name in names:
        if name in derived:
            metrics[name] = derived[name]
        else:
            span, field = name.rsplit(".", 1)
            metrics[name] = spans.get(span, zero).get(field, 0)
    return metrics


def _accounting(untraced: dict, traced: dict) -> str:
    """How far the top-level spans' time, split into self times, is from the
    untraced wall time of the same number of frames."""
    top = traced["spans"].get("cli.main", {"busy_s": 0.0})["busy_s"]
    self_total = sum(s["self_s"] for s in traced["spans"].values())
    expected = untraced["measured_s"] / untraced["frames"] * traced["frames"]
    return (f"self times of all spans sum to {self_total:.6g} s = cli.main total "
            f"{top:.6g} s over {traced['frames']} frames; the untraced run takes "
            f"{expected:.6g} s for as many frames ({top / expected - 1.0:+.2%})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, to check the harness itself")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    args = parser.parse_args(argv)
    if args.workload not in why:
        parser.error(f"--workload must be one of {', '.join(why)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (ROOT / "src" / "poolkey" / "cli.py").is_file():
        print(f"error: no poolkey sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    profile = "smoke" if args.smoke else "full"
    pinned = json.loads((BENCH / "digests.json").read_text())[profile]
    tag = f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")
    work = WORK / f"{tag}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--profile", profile, "--dir"]
    try:
        setup_times = []
        for _ in range(SETUPS):
            shutil.rmtree(work, ignore_errors=True)
            seconds, _ = _child(["setup", *common, str(work)], deadline)
            setup_times.append(seconds)
        runs = {}
        for traced in (0, 1)[: 1 + args.trace]:
            _, out = _child(["measure", *common, str(work), "--seconds",
                             str(args.seconds), "--traced", str(traced), "--spans",
                             str(WORK / f"spans-{tag}.jsonl")], deadline)
            runs[traced] = json.loads(out.splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = runs[0]
    problems = [p for r in runs.values() for p in r["problems"]]
    attempted = sum(r["frames"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    if args.seed == DEFAULT_SEED:
        want = pinned.get(args.workload)
        for r in runs.values():
            if r["digest"] != want:
                problems.append(f"output digest {r['digest']} is not the pinned {want}")
                failed = attempted

    if args.trace:
        values = _per_layer([m["name"] for m in wanted], untraced, runs[1])
    else:
        values = _end_to_end(untraced, statistics.median(setup_times))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    env = dict(_environment(), **untraced["versions"])
    lines = [
        f"workload {args.workload}: {why[args.workload]}",
        f"input: {untraced['input']}; seed {args.seed}",
        f"environment: {json.dumps(env)}",
        f"set-up: {len(setup_times)} fresh processes, median {statistics.median(setup_times):.6g} s",
        f"timed: {untraced['frames']} frames in {untraced['steps']} steps, "
        f"{untraced['measured_s']:.6g} s of CLI calls; frame_ms percentiles over "
        f"{len(untraced['frame_ms'])} samples",
        f"output digest {untraced['digest']}",
    ]
    if args.trace:
        lines.append(_accounting(untraced, runs[1]))
    lines += [f"{name} {m['value']!r} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"failed_frac {_ratio(failed, attempted)!r} ratio "
                 f"({failed} of {attempted} frames)")
    lines += [f"check failed: {p}" for p in problems]
    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    WORK.mkdir(exist_ok=True)
    (WORK / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(
        {"lines": lines, "environment": env, "setup_s": setup_times,
         "runs": runs, "result": result}, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
