"""In-memory spans around calls into poolkey's public functions.

The tracer wraps each function in ``TRACED`` wherever a ``poolkey`` module
holds a reference to it, so a call made by the CLI and a call made inside
another traced function (``beta_sweep`` calling ``decode``) both get a span.
Functions outside the list run unwrapped: ``localize_frame`` is one span,
with no split into RANSAC iterations. A span is recorded only while a
top-level span (one ``cli.main`` call) is open, so the benchmark's own output
checks, which also read volumes and annotations, stay out of the trace.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

TRACED = (
    ("heatmap", "read_volume"),
    ("heatmap", "decode"),
    ("heatmap", "write_volume"),
    ("metrics", "evaluate"),
    ("metrics", "beta_sweep"),
    ("metrics", "tolerance_sweep"),
    ("metrics", "write_report_json"),
    ("metrics", "write_sweep_csv"),
    ("homography", "localize_frame"),
    ("synth", "make_scene"),
    ("synth", "generate_dataset"),
    ("annotation_io", "read_annotation"),
    ("annotation_io", "read_detections"),
    ("annotation_io", "write_annotation"),
    ("model", "read_model"),
)


def _stem(path) -> str:
    return Path(path).stem


# Which frame a call works on, from its bound arguments; calls that span
# several frames (evaluate, the sweeps) inherit the frame id of their parent.
_FRAME_OF = {
    "heatmap.read_volume": lambda a: _stem(a["path"]),
    "heatmap.write_volume": lambda a: _stem(a["path"]),
    "heatmap.decode": lambda a: a.get("frame_id") or None,
    "homography.localize_frame": lambda a: a["det"].frame_id,
    "synth.make_scene": lambda a: f"scene_{a.get('index', 0):04d}",
    "annotation_io.read_annotation": lambda a: _stem(a["path"]),
    "annotation_io.read_detections": lambda a: _stem(a["path"]),
    "annotation_io.write_annotation": lambda a: a["ann"].frame_id,
}


def _counters(name: str, args: dict, result) -> dict:
    """Work counts taken where the work happens; file sizes stand in for bytes."""
    if name in ("heatmap.read_volume", "heatmap.write_volume"):
        return {"bytes": os.path.getsize(args["path"])}
    if name == "heatmap.decode":
        return {"channels": args["volume"].channels, "kept": len(result.detections)}
    if name == "homography.localize_frame":
        return {
            "correspondences": len(result.correspondences),
            "inliers": result.inlier_count,
        }
    return {}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    frame_id: str | None
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)


class Tracer:
    """Records spans in memory; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self._next_id = 0

    def _open(self, name: str, frame_id: str | None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if frame_id is None and parent is not None:
            frame_id = parent.frame_id
        span = Span(
            self._next_id, name, parent.id if parent else None, frame_id, perf_counter()
        )
        self._next_id += 1
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        self.spans.append(span)

    @contextmanager
    def top(self, name: str, frame_id: str | None):
        """The span of one CLI call; traced functions record only inside it."""
        span = self._open(name, frame_id)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        frame_of = _FRAME_OF.get(name, lambda a: None)

        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs).arguments
            span = self._open(name, frame_of(bound))
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.counters["failed"] = 1
                self._close(span)
                raise
            self._close(span)
            span.counters.update(_counters(name, bound, result))
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items()) if n.split(".")[0] == "poolkey"
        ]
        for module_name, func_name in TRACED:
            home = importlib.import_module(f"poolkey.{module_name}")
            original = getattr(home, func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, busy_s, self_s and summed counters.

        Self time is a span's duration minus the durations of its direct
        children; children of one span never overlap, because the CLI runs
        one worker.
        """
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] = child_time.get(span.parent, 0.0) + (
                    span.end - span.start
                )
        out: dict[str, dict] = {}
        for span in self.spans:
            entry = out.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            duration = span.end - span.start
            entry["calls"] += 1
            entry["busy_s"] += duration
            entry["self_s"] += duration - child_time.get(span.id, 0.0)
            for key, value in span.counters.items():
                entry[key] = entry.get(key, 0) + value
        return out

    def write(self, path: str | Path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
