"""Child process of the benchmark: one set-up, or one timed phase.

    python3 perfbench/worker.py setup   --workload W --seed S --profile P --dir D
    python3 perfbench/worker.py measure --workload W --seed S --profile P --dir D
                                        --seconds N --traced 0|1 --spans FILE

``run.py`` starts these; each runs in a fresh process so that set-up time
includes what a CLI user pays on every run (interpreter start and imports),
and so that the peak RSS of a timed phase is not masked by set-up.
``measure`` prints one JSON line with its raw counts and timings.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program() -> None:
    """Import poolkey from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import poolkey

    if Path(poolkey.__file__).resolve().parent != SRC / "poolkey":
        raise SystemExit(f"poolkey imported from {poolkey.__file__}, not {SRC}")


class CallFailed(Exception):
    """A CLI call exited non-zero or raised."""


class Timer:
    """Runs CLI calls in-process, capturing stdout and summing their time."""

    def __init__(self, main, tracer):
        self._main = main
        self._tracer = tracer
        self.seconds = 0.0

    def __call__(self, argv, frame_id) -> str:
        argv = [str(a) for a in argv]
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            start = perf_counter()
            try:
                if self._tracer is None:
                    code = self._main(argv)
                else:
                    with self._tracer.top("cli.main", frame_id):
                        code = self._main(argv)
            except Exception as exc:  # noqa: BLE001 - a traceback fails the frame
                raise CallFailed(f"poolkey {argv[0]} raised {exc!r}") from exc
            finally:
                self.seconds += perf_counter() - start
        if code != 0:
            raise CallFailed(f"poolkey {argv[0]} exited {code}")
        return buffer.getvalue()


def measure(args, workload, run) -> dict:
    from poolkey import cli
    from spans import Tracer

    tracer = Tracer() if args.traced else None
    period = workload.period(run.size)
    per_step = workload.frames(run.size)
    first: dict[int, str] = {}  # each item's output digest at its first run
    problems: list[str] = []

    def step(item: int) -> tuple[float, bool]:
        timer = Timer(cli.main, tracer)
        try:
            digest = workload.step(run, item, timer)
        except Exception as exc:  # noqa: BLE001 - a failed frame, not a failed run
            problems.append(f"item {item}: {exc}")
            return timer.seconds, False
        if first.setdefault(item, digest) != digest:
            problems.append(f"item {item}: output differs from its first run")
            return timer.seconds, False
        return timer.seconds, True

    if tracer is not None:
        tracer.install()
    # warm-up: lazy set-up and allocator growth stay out of the timed phase
    step(0)
    if tracer is not None:
        tracer.spans.clear()

    frames = failed = steps = 0
    measured_s = 0.0
    frame_ms: list[float] = []
    while measured_s < args.seconds or steps < period:
        seconds, ok = step(steps % period)
        steps += 1
        frames += per_step
        failed += 0 if ok else per_step
        measured_s += seconds
        frame_ms += [1000.0 * seconds / per_step] * per_step
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.spans)

    cycle = [first.get(i) for i in range(period)]
    return {
        "frames": frames,
        "failed": failed,
        "steps": steps,
        "measured_s": measured_s,
        "frame_ms": frame_ms,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "digest": None if None in cycle else hashlib.sha256("".join(cycle).encode()).hexdigest(),
        "problems": problems,
        "spans": tracer.summary() if tracer is not None else None,
        "input": workload.describe(run.size),
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("phase", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--profile", required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    os.environ.pop("POOL_THREADS", None)
    _import_program()
    from workloads import SIZES, WORKLOADS, Run

    workload = WORKLOADS[args.workload]
    run = Run(Path(args.dir), args.seed, SIZES[args.profile])
    if args.phase == "setup":
        run.work.mkdir(parents=True)
        workload.setup(run)
        return 0
    print(json.dumps(measure(args, workload, run)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
