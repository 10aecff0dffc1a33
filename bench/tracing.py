"""Outside-in tracing of funcid for the benchmark's traced repetitions.

A ``Recorder`` replaces funcid's public functions and methods, where their
callers look them up, with wrappers that record one span per call: name,
start, end, parent and an optional info value.  Spans stay in memory for one
repetition; ``layer_metrics`` checks their accounting and folds them into the
per-layer figures.  Outside ``Recorder.active()`` funcid runs unpatched, so
untraced repetitions in the same process measure the plain code.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import funcid.cli
import funcid.datasets
import funcid.encoder
import funcid.experiments
import funcid.nn
import funcid.nn.layers
import funcid.nn.network
import funcid.rng
from funcid.suite import Suite, list_functions

NAME, START, END, PARENT, INFO = range(5)

EVAL_PREFIX = "suite.evaluate."
LAYER_PREFIX = "nn.layer."
# Layer timings are scaled to a batch of 64 rows and only use calls of at
# least that many rows, so the per-call overhead of single-image predicts
# does not swamp the per-row cost of the training batches.
LAYER_BATCH = 64
_NUMBERED = {"Conv2D": "conv", "AvgPool2D": "pool", "MaxPool2D": "pool", "Dense": "dense"}
LAYER_POSITIONS = ("conv1", "pool1", "conv2", "pool2", "dense1", "dense2", "dense3", "act")

# The workloads evaluate only the BBOB suite.
FUNCTION_NAMES = tuple(f"f{p.index:02d}" for p in list_functions(Suite.CONTINUOUS_BBOB))

# Counts that must repeat exactly across traced repetitions of one seed.
COUNT_METRICS = (
    "suite.queries_total",
    "suite.queries_distinct",
    "suite.make_instance_calls",
    "rng.substream_calls",
    "datasets.bytes",
    "nn.network.copy_calls",
    "nn.training.batches",
)


class SpanAccountingError(RuntimeError):
    """Spans that do not nest, overlap, or leave a negative self time."""


def _eval_name(args) -> str:
    prob = args[0].problem
    if prob.suite is Suite.CONTINUOUS_BBOB:
        return f"{EVAL_PREFIX}f{prob.index:02d}"
    return f"{EVAL_PREFIX}pb{prob.index}"


def _query_cost(args, image):
    return (image.query_cost.distinct_queries, image.query_cost.total_queries)


def _rows(args, result):
    return len(args[1])


class Recorder:
    """Span recorder; patches funcid only inside ``active()``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._layer_names: dict[int, str] = {}

    def _wrap(self, fn, name, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        named = callable(name)

        def traced(*args, **kwargs):
            span = [name(args) if named else name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if after is not None:
                span[INFO] = after(args, result)
            return result

        return traced

    def _name_layers(self, args, network):
        """Name a network's layers by position: conv1, pool1, dense1, act, ..."""
        seen: dict[str, int] = {}
        for layer in network.layers:
            kind = type(layer).__name__
            stem = _NUMBERED.get(kind)
            if stem:
                seen[stem] = seen.get(stem, 0) + 1
                name = f"{stem}{seen[stem]}"
            else:
                name = "act" if kind in ("ReLU", "Tanh") else kind.lower()
            self._layer_names[id(layer)] = name

    def _layer_span(self, suffix):
        names = self._layer_names
        return lambda args: f"{LAYER_PREFIX}{names.get(id(args[0]), '?')}.{suffix}"

    def _targets(self):
        """(owner, attribute, span name, info function) for every wrapped call."""
        ds, ex, net = funcid.datasets, funcid.experiments, funcid.nn.network
        targets = [
            (funcid.cli, "main", "cli.main", None),
            (funcid.cli, "run_preset", "experiments.run_preset", None),
            (ds, "build_dataset", "datasets.build_dataset", None),
            (ex, "build_dataset", "datasets.build_dataset", None),
            (ds, "construct_image", "encoder.construct_image", _query_cost),
            (funcid.encoder, "evaluate", _eval_name, None),
            (ds, "make_instance", "suite.make_instance", None),
            (funcid.rng, "substream", "rng.substream", None),
            (ds, "add_gaussian_noise", "datasets.noise", None),
            (ds, "add_uniform_noise", "datasets.noise", None),
            (ex, "add_uniform_noise", "datasets.noise", None),
            (ds, "content_digest", "datasets.content_digest", None),
            (ds, "save", "datasets.save", lambda a, r: Path(a[1]).stat().st_size),
            (ds, "load", "datasets.load", lambda a, r: Path(a[0]).stat().st_size),
            (funcid.nn, "init_model", "nn.init_model", None),
            (ex, "init_model", "nn.init_model", None),
            (net, "build_network", "nn.network.build_network", self._name_layers),
            (net.Network, "apply_input_norm", "nn.network.apply_input_norm", None),
            (net.Network, "copy", "nn.network.copy", None),
            (net.Network, "backward", "nn.network.backward", None),
            (funcid.nn, "save_model", "nn.network.save_model", None),
            (ex, "save_model", "nn.network.save_model", None),
            (funcid.nn, "load_model", "nn.network.load_model", None),
            (funcid.nn, "train", "nn.training.train", None),
            (ex, "train", "nn.training.train", None),
            (funcid.nn, "predict", "nn.predict", None),
            (ex, "predict", "nn.predict", None),
        ]
        base = funcid.nn.layers.Layer
        for cls in vars(funcid.nn.layers).values():
            if isinstance(cls, type) and issubclass(cls, base) and cls is not base:
                for method, suffix in (("forward", "fwd"), ("backward", "bwd")):
                    if method in vars(cls):
                        targets.append((cls, method, self._layer_span(suffix), _rows))
        return targets

    @contextmanager
    def active(self):
        """Record spans into ``self.spans`` while the block runs."""
        saved = []
        try:
            for owner, attr, name, after in self._targets():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def take(self) -> list[list]:
        """Hand over the recorded spans and start an empty record."""
        spans = list(self.spans)
        self.spans.clear()
        self._layer_names.clear()
        return spans


def self_times(spans: list[list]) -> list[int]:
    """Self time of every span, in ns, after checking the span accounting.

    A span's children must lie inside it and must not overlap each other, so
    its self time plus its children's summed time equals its duration.
    """
    covered_until = [span[START] for span in spans]
    children = [0] * len(spans)
    for i, span in enumerate(spans):
        if span[END] < span[START]:
            raise SpanAccountingError(f"span {i} {span[NAME]} ends before it starts")
        p = span[PARENT]
        if p < 0:
            continue
        parent = spans[p]
        if span[START] < covered_until[p] or span[END] > parent[END]:
            raise SpanAccountingError(
                f"span {i} {span[NAME]} overlaps a sibling or leaves {parent[NAME]}"
            )
        covered_until[p] = span[END]
        children[p] += span[END] - span[START]
    out = []
    for i, span in enumerate(spans):
        own = span[END] - span[START] - children[i]
        if own < 0:
            raise SpanAccountingError(f"span {i} {span[NAME]} has negative self time")
        out.append(own)
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one traced repetition (0 where a layer did not run)."""
    own = self_times(spans)
    count: dict[str, int] = {}
    total: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    eval_in_construct = 0
    norm_us = []
    layer_ns: dict[str, int] = {}
    layer_rows: dict[str, int] = {}
    queries = [0, 0]
    nbytes = 0
    for i, span in enumerate(spans):
        name, dur = span[NAME], span[END] - span[START]
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0) + dur
        self_ns[name] = self_ns.get(name, 0) + own[i]
        if name.startswith(EVAL_PREFIX) and span[PARENT] >= 0:
            if spans[span[PARENT]][NAME] == "encoder.construct_image":
                eval_in_construct += dur
        elif name.startswith(LAYER_PREFIX) and span[INFO] >= LAYER_BATCH:
            layer_ns[name] = layer_ns.get(name, 0) + dur
            layer_rows[name] = layer_rows.get(name, 0) + span[INFO]
        elif name == "encoder.construct_image":
            queries[0] += span[INFO][0]
            queries[1] += span[INFO][1]
        elif name == "nn.network.apply_input_norm":
            norm_us.append(dur / 1e3)
        elif name in ("datasets.save", "datasets.load"):
            nbytes += span[INFO]

    def ms(key, table=total):
        return table.get(key, 0) / 1e6

    def per_call_us(key):
        return total[key] / count[key] / 1e3 if count.get(key) else 0.0

    constructs = count.get("encoder.construct_image", 0)
    construct_ns = total.get("encoder.construct_image", 0)
    batches = count.get("nn.network.backward", 0)
    out = {f"suite.eval_us.{fn}": per_call_us(EVAL_PREFIX + fn) for fn in FUNCTION_NAMES}
    out.update({
        "suite.queries_total": queries[1],
        "suite.queries_distinct": queries[0],
        "suite.make_instance_ms": ms("suite.make_instance"),
        "suite.make_instance_calls": count.get("suite.make_instance", 0),
        "rng.substream_calls": count.get("rng.substream", 0),
        "rng.substream_us": per_call_us("rng.substream"),
        "encoder.construct_image_self_us": (
            (construct_ns - eval_in_construct) / constructs / 1e3 if constructs else 0.0
        ),
        "encoder.eval_share": eval_in_construct / construct_ns if construct_ns else 0.0,
        "datasets.build_dataset_self_ms": ms("datasets.build_dataset", self_ns),
        "datasets.noise_ms": ms("datasets.noise"),
        "datasets.content_digest_ms": ms("datasets.content_digest"),
        "datasets.save_ms": ms("datasets.save"),
        "datasets.load_ms": ms("datasets.load"),
        "datasets.bytes": nbytes,
    })
    for position in LAYER_POSITIONS:
        for suffix in ("fwd", "bwd"):
            key = f"{LAYER_PREFIX}{position}.{suffix}"
            rows = layer_rows.get(key, 0)
            out[f"nn.layers.{position}.{suffix}_ms"] = (
                layer_ns[key] / 1e6 * LAYER_BATCH / rows if rows else 0.0
            )
    out.update({
        "nn.network.apply_input_norm_us": statistics.median(norm_us) if norm_us else 0.0,
        "nn.network.copy_ms": ms("nn.network.copy"),
        "nn.network.copy_calls": count.get("nn.network.copy", 0),
        "nn.network.save_model_ms": ms("nn.network.save_model"),
        "nn.network.load_model_ms": ms("nn.network.load_model"),
        "nn.training.self_ms_per_batch": (
            self_ns.get("nn.training.train", 0) / 1e6 / batches if batches else 0.0
        ),
        "nn.training.batches": batches,
        "experiments.self_ms": ms("experiments.run_preset", self_ns),
    })
    return out
