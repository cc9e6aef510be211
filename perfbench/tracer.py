"""Spans around soundloc's public functions, recorded from outside the program.

``Tracer.install()`` replaces a fixed list of module functions and class
methods with wrappers that record a span (name, start, end, parent) and
puts the originals back on ``uninstall()``.  Spans are kept in memory and
written out by the caller when the run ends.  ``layer_metrics`` turns the
spans of a run into the per-layer metrics listed in ``BENCHMARK.json``.

Untraced runs never install a tracer: they call the program exactly as a
user would.
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np

from soundloc import autodiff as ad
from soundloc import harness, metrics, synth
from soundloc.encoders import ImageEncoder
from soundloc.grounding import MaskDecoder
from soundloc.model import SoundLocalizer
from soundloc.optim import Adam

# Every primitive that can appear on the tape, so that each workload prints
# the same set of per-op counts.
TAPE_OPS = tuple(sorted(ad.PRIMITIVES))

# (owner, attribute, span name, scenes(args) or None).  Module functions are
# replaced on the module the program looks them up in, methods on their
# class.  The image encoder and backward get wrappers of their own.
WRAPPED = (
    (harness, "train", "harness.train", None),
    (harness, "evaluate", "harness.evaluate", None),
    (synth, "make_batch", "synth.make_batch", lambda a: int(a[1])),
    (harness, "warmup_image_encoder", "harness.warmup_image_encoder", None),
    (harness, "batch_loss", "harness.batch_loss", None),
    (harness, "infonce_symmetric", "losses.infonce_symmetric", None),
    (harness, "area_regularization", "losses.area_regularization", None),
    (harness, "total_loss", "losses.total_loss", None),
    (harness, "predict_eval_samples", "harness.predict_eval_samples", lambda a: len(a[1])),
    (harness, "save_model", "harness.save_model", None),
    (harness, "write_report", "harness.write_report", None),
    (metrics, "compute_report", "metrics.compute_report", None),
    (metrics, "ciou", "metrics.ciou", None),
    (metrics, "miou_fscore", "metrics.miou_fscore", None),
    (Adam, "step", "optim.step", None),
    (SoundLocalizer, "perceive", "model.perceive", None),
    (SoundLocalizer, "similarity_tables", "model.similarity_tables", None),
    (SoundLocalizer, "prompt_embeddings", "model.prompt_embeddings", None),
    (SoundLocalizer, "predict_masks", "model.predict_masks", None),
    (MaskDecoder, "decode_logits", "grounding.decode_logits", None),
)
LOSS_SPANS = ("losses.infonce_symmetric", "losses.area_regularization",
              "losses.total_loss")
# per main-loop step: metric -> (span names, use self time)
STEP_LAYERS = {
    "autodiff.backward_ms": (("autodiff.backward",), False),
    "grounding.decode_logits_ms": (("grounding.decode_logits",), False),
    "encoders.reencode_ms": (("encoders.reencode",), False),
    "model.prompt_embeddings_ms": (("model.prompt_embeddings",), False),
    "model.perceive_ms": (("model.perceive",), False),
    "model.similarity_tables_self_ms": (("model.similarity_tables",), True),
    "harness.batch_loss_self_ms": (("harness.batch_loss",), True),
    "losses.ms": (LOSS_SPANS, False),
    "optim.step_ms": (("optim.step",), False),
}
# measured per scored scene in eval-suite rather than per step
SCENE_LAYERS = ("grounding.decode_logits_ms", "model.prompt_embeddings_ms",
                "model.perceive_ms")


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.attrs: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str, **attrs) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter_ns())
        self.ends.append(-1)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.attrs.append(attrs)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name: str, scenes):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, **({"scenes": scenes(args)} if scenes else {}))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def _wrap_image_forward(self, fn):
        """Only the masked re-encode inside ``similarity_tables`` is a span;
        the forward under ``perceive`` and warmup stays in its caller."""
        @functools.wraps(fn)
        def traced(encoder, images):
            if not (self._stack and self.names[self._stack[-1]] == "model.similarity_tables"):
                return fn(encoder, images)
            idx = self._open("encoders.reencode")
            try:
                return fn(encoder, images)
            finally:
                self._close(idx)
        return traced

    def _wrap_backward(self, fn):
        """Main-loop backward also counts the tape it is about to walk."""
        @functools.wraps(fn)
        def traced(root):
            if any(self.names[i] == "harness.warmup_image_encoder" for i in self._stack):
                idx = self._open("autodiff.warmup_backward")
            else:
                walk = self._open("trace.tape_walk")
                tape = tape_census(root)
                self._close(walk)
                idx = self._open("autodiff.backward", tape=tape)
            try:
                return fn(root)
            finally:
                self._close(idx)
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        patches = [(owner, attr, self._wrap(getattr(owner, attr), name, scenes))
                   for owner, attr, name, scenes in WRAPPED]
        patches.append((ImageEncoder, "forward", self._wrap_image_forward(ImageEncoder.forward)))
        patches.append((ad, "backward", self._wrap_backward(ad.backward)))
        for owner, attr, wrapper in patches:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def spans(self) -> list[dict]:
        return [{"name": n, "start_ns": s, "end_ns": e, "parent": p, **a}
                for n, s, e, p, a in zip(self.names, self.starts, self.ends,
                                         self.parents, self.attrs)]


def tape_census(root: ad.Tensor) -> dict:
    """Nodes reachable from ``root`` through ``Tensor.parents``, by op.

    Counts every recorded (op-bearing) node once and adds up the bytes of
    the arrays those nodes own; views (reshape, transpose) share their
    parent's buffer and add nothing, and leaves (parameters, inputs) are
    not tape.
    """
    seen: set[int] = set()
    todo = [root]
    counts: dict[str, int] = {}
    nbytes = 0
    while todo:
        t = todo.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t.op is None:
            continue
        counts[t.op] = counts.get(t.op, 0) + 1
        if t.data.base is None:
            nbytes += t.data.nbytes
        todo.extend(t.parents)
    return {"nodes": sum(counts.values()), "by_op": counts, "bytes": nbytes}


# -- per-layer metrics ---------------------------------------------------------

def _tail(values: list[float]) -> float:
    """Highest percentile with at least ten samples beyond it; the slowest
    value when there are fewer than forty samples."""
    n = len(values)
    if n < 40:
        return max(values)
    return float(np.percentile(values, 100.0 * (1.0 - 10.0 / n)))


def layer_metrics(spans: list[dict], kind: str, load_ms: float) -> dict[str, float]:
    """Per-layer figures from the spans of one traced run.

    ``kind`` is ``"train"`` or ``"eval"``: the workload's own timed calls are
    its ``harness.train`` or ``harness.evaluate`` spans.  Step figures are
    medians over main-loop steps (``batch_loss`` start to ``Adam.step`` end);
    eval-suite takes them from the training that made its checkpoint, and
    reports the decoder, prompts and perceive per scored scene instead.
    ``load_ms`` is the ``harness.load_model`` time the workload measured.
    """
    names = [s["name"] for s in spans]
    dur = [(s["end_ns"] - s["start_ns"]) / 1e6 for s in spans]
    parents = [s["parent"] for s in spans]
    kids: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        kids.setdefault(p, []).append(i)
    self_ms = [d - sum(dur[k] for k in kids.get(i, ())) for i, d in enumerate(dur)]
    root_name = "harness.train" if kind == "train" else "harness.evaluate"
    own_roots = [i for i in kids[-1] if names[i] == root_name]
    own = []
    todo = list(own_roots)
    while todo:
        i = todo.pop()
        own.append(i)
        todo.extend(kids.get(i, ()))

    def own_spans(*wanted: str) -> list[int]:
        return [i for i in own if names[i] in wanted]

    def durations(name: str, parent: str | None = None) -> list[float]:
        return [dur[i] for i, n in enumerate(names)
                if n == name and (parent is None or names[parents[i]] == parent)]

    out: dict[str, float] = {}
    out["trace.unattributed_pct"] = (100.0 * sum(self_ms[i] for i in own_roots)
                                     / sum(dur[i] for i in own_roots))
    gen = own_spans("synth.make_batch")
    out["synth.scene_ms"] = sum(dur[i] for i in gen) / sum(spans[i]["scenes"] for i in gen)

    per_step: dict[str, list[float]] = {"harness.step_ms": [], **{k: [] for k in STEP_LAYERS}}
    tapes = []
    for first, opt, last in _main_loop_steps(names, kids):
        window = range(first, last + 1)
        # the tape walk is the tracer's own work, not the program's
        walk = sum(dur[i] for i in window if names[i] == "trace.tape_walk")
        per_step["harness.step_ms"].append(
            (spans[opt]["end_ns"] - spans[first]["start_ns"]) / 1e6 - walk)
        for key, (wanted, use_self) in STEP_LAYERS.items():
            src = self_ms if use_self else dur
            per_step[key].append(sum(src[i] for i in window if names[i] in wanted))
        tapes.extend(spans[i]["tape"] for i in window if "tape" in spans[i])
    for key, values in per_step.items():
        out[key] = statistics.median(values)
    out["harness.step_ms_tail"] = _tail(per_step["harness.step_ms"])
    out["harness.steps_traced"] = float(len(per_step["harness.step_ms"]))
    out["autodiff.warmup_backward_ms"] = statistics.median(durations("autodiff.warmup_backward"))
    out["harness.warmup_s"] = statistics.median(durations("harness.warmup_image_encoder")) / 1e3
    out["harness.validation_ms"] = statistics.median(
        durations("harness.predict_eval_samples", parent="harness.train"))
    out["autodiff.tape_nodes"] = float(statistics.median(t["nodes"] for t in tapes))
    out["autodiff.tape_mib"] = statistics.median(t["bytes"] for t in tapes) / 2**20
    for op in TAPE_OPS:
        out[f"autodiff.tape_nodes.{op}"] = float(
            statistics.median(t["by_op"].get(op, 0) for t in tapes))

    # validation passes in train, benchmark scoring in eval-suite
    predict = own_spans("harness.predict_eval_samples")
    scored = sum(spans[i]["scenes"] for i in predict)
    if kind == "eval":
        for key in SCENE_LAYERS:
            out[key] = sum(dur[i] for i in own_spans(*STEP_LAYERS[key][0])) / scored
    out["harness.predict_ms_per_scene"] = sum(dur[i] for i in predict) / scored
    out["model.predict_masks_self_ms"] = sum(
        self_ms[i] for i in own_spans("model.predict_masks")) / scored
    top_metrics = [i for i in own if names[i].startswith("metrics.")
                   and not names[parents[i]].startswith("metrics.")]
    out["metrics.report_ms"] = sum(dur[i] for i in top_metrics) / len(predict)
    # the checkpoint a train call saves, the reports an evaluate call writes
    out["harness.write_outputs_ms"] = sum(
        dur[i] for i in own_spans("harness.save_model", "harness.write_report")) / len(own_roots)
    out["checkpoint.load_ms"] = load_ms
    return out


def _main_loop_steps(names: list[str], kids: dict[int, list[int]]) -> list[tuple[int, int, int]]:
    """(first span, ``optim.step`` span, last span) of every optimizer step
    directly under a ``harness.train`` span: a ``batch_loss`` whose next
    sibling spans are the tape walk, ``backward`` and ``optim.step``.  The
    post-training probe loss has no backward after it and is not a step."""
    pattern = ["trace.tape_walk", "autodiff.backward", "optim.step"]
    steps = []
    for r in kids[-1]:
        if names[r] != "harness.train":
            continue
        sib = kids.get(r, [])
        for k, i in enumerate(sib[:-3]):
            if names[i] == "harness.batch_loss" and [names[j] for j in sib[k + 1:k + 4]] == pattern:
                last = sib[k + 3]
                while kids.get(last):
                    last = kids[last][-1]
                steps.append((i, sib[k + 3], last))
    return steps
