"""In-memory spans around fedmentor's public functions, and the per-layer metrics they give.

``traced`` replaces each function at the module attribute its caller looks
up (``federation.train_local``, not ``trainer.train_local``), so the program
runs unchanged apart from the wrappers, and puts the originals back on exit.
A span records its thread and its parent on that thread; ``train_local``
runs on the client pool's threads, so its spans have no parent and self time
only subtracts children on the span's own thread.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute, span name). The span name is the module that defines
# the function, which is what the per-layer metric names use.
TARGETS = (
    ("cli", "build_experiment", "config.build_experiment"),
    ("config", "make_domain", "data.make_domain"),
    ("cli", "run_training", "federation.run_training"),
    ("federation", "run_round", "federation.run_round"),
    ("federation", "train_local", "trainer.train_local"),
    ("trainer", "grad_adapters", "trainer.grad_adapters"),
    ("trainer", "mean_loss", "trainer.mean_loss"),
    ("federation", "privatize", "dp.privatize"),
    ("federation", "privatize_static", "dp.privatize"),
    ("federation", "serialize", "lora.serialize"),
    ("cli", "serialize", "lora.serialize"),
    ("federation", "aggregate", "federation.aggregate"),
    ("metrics", "evaluate", "metrics.evaluate"),
    ("cli", "write_metrics_csv", "cli.write_metrics_csv"),
    ("cli", "write_summary_json", "cli.write_summary_json"),
)
SIZED = {"lora.serialize"}  # spans whose result length is recorded as bytes
ROOT = "cli.execute_run"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    thread: int
    parent: int | None
    start: float
    end: float
    nbytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters from any thread; read them after the run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn):
        sized = name in SIZED

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            self.spans.append(
                Span(span_id, name, threading.get_ident(), parent, start, end,
                     len(result) if sized else 0)
            )
            return result

        return traced_call

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def counting_call(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counting_call


@contextmanager
def traced(tracer: Tracer):
    """Install the tracer's wrappers on fedmentor for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(f"fedmentor.{module_name}")
            if hasattr(module, attr):
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
        matrix = getattr(importlib.import_module("fedmentor.linalg"), "Matrix", None)
        if matrix is not None:
            saved.append((matrix, "__post_init__", matrix.__post_init__))
            matrix.__post_init__ = tracer.counted("linalg.matrix_constructs", matrix.__post_init__)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time of its direct children on the same thread."""
    children = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            children[(s.thread, s.parent)] += s.duration
    return {s.id: s.duration - children[(s.thread, s.id)] for s in spans}


def layer_metrics(tracer: Tracer, steps: int, gate_rounds: int) -> dict[str, float]:
    """Per-layer totals for one traced run whose root span is ``cli.execute_run``."""
    by_name = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)
    selfs = self_times(tracer.spans)

    def total(name):
        return sum(s.duration for s in by_name[name])

    def self_total(name):
        return sum(selfs[s.id] for s in by_name[name])

    # Train phase: first train_local start to last train_local end, per round.
    train = by_name["trainer.train_local"]
    train_phase = 0.0
    for r in by_name["federation.run_round"]:
        inside = [t for t in train if r.start <= t.start and t.end <= r.end]
        if inside:
            train_phase += max(t.end for t in inside) - min(t.start for t in inside)

    (root,) = by_name[ROOT]
    (training,) = by_name["federation.run_training"]
    write_artifacts = root.end - training.end
    matrices = tracer.counts["linalg.matrix_constructs"]
    return {
        "trainer.grad_adapters_s": total("trainer.grad_adapters"),
        "trainer.grad_adapters_calls": len(by_name["trainer.grad_adapters"]),
        "trainer.train_local_s": total("trainer.train_local"),
        "trainer.train_local_self_s": self_total("trainer.train_local"),
        "trainer.mean_loss_s": total("trainer.mean_loss"),
        "linalg.matrix_constructs": matrices,
        "linalg.matrix_constructs_per_step": matrices / steps,
        "dp.privatize_s": total("dp.privatize"),
        "dp.privatize_calls": len(by_name["dp.privatize"]),
        "dp.gate_fired_rounds": gate_rounds,
        "lora.serialize_s": total("lora.serialize"),
        "lora.serialize_calls": len(by_name["lora.serialize"]),
        "lora.serialize_bytes": sum(s.nbytes for s in by_name["lora.serialize"]),
        "federation.aggregate_s": total("federation.aggregate"),
        "federation.run_round_s": total("federation.run_round"),
        "federation.run_round_self_s": self_total("federation.run_round"),
        "federation.train_phase_s": train_phase,
        "federation.train_parallelism": total("trainer.train_local") / train_phase
        if train_phase else 0.0,
        "metrics.evaluate_s": total("metrics.evaluate"),
        "data.make_domain_s": total("data.make_domain"),
        "config.build_experiment_s": total("config.build_experiment"),
        "cli.write_artifacts_s": write_artifacts,
        "cli.execute_run_s": root.duration,
        "trace_accounted_frac": (
            total("config.build_experiment") + total("federation.run_round") + write_artifacts
        ) / root.duration,
    }
