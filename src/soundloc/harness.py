"""Run configuration, training loop, benchmark evaluation, and ablations.

A run is a single JSON config document.  Loading one is strict: a key
that is not a field, including one an earlier version had, is a contract
violation, and so is a value of the wrong type.  The image encoder gets a
short supervised warmup (``warmup_epochs: 0`` skips it), then all
encoders stay frozen while the prompts and decoder train.

Training is fully deterministic under a fixed seed: data generation,
splits, batch order, and parameter init all derive from it, and
parameters are snapped to float32 values before the final loss is logged
so a reloaded checkpoint reproduces that loss bit-for-bit.

The training scenes come from a ``synth.SceneStream``, whose odd chunks
``synth``'s scene worker makes.  Evaluation scores a chunk of
``PREDICT_CHUNK`` scenes at a time.  Given a ``synth.SceneStream`` of several
chunks, this process makes and scores the even chunks while the scene worker
makes and scores the odd ones with the model pickled to it once per call (see
``predict_eval_samples``); the scenes and rows do not depend on who made or
scored them.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import itertools
import json
import os
import sys
import time
import types
import typing
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt_io
from . import formats, metrics, synth
from .autodiff import ContractViolation, Tensor
from .encoders import CHANNELS, EncoderConfig
from .losses import LossWeights, area_regularization, infonce_symmetric, total_loss
from .model import SoundLocalizer
from .optim import Adam, OptimConfig
from .prompting import BOTTLENECK_RATIO, PromptConfig
from .synth import PREDICT_CHUNK, GeneratorConfig, SceneSample

# benchmark name (CLI / report) -> scene generator mode
BENCHMARKS = {
    "s4-analog": "s4",
    "ms3-analog": "ms3",
    "extended-analog": "extended",
    "heard": "heard",
    "unheard": "unheard",
}

# Validation scenes scored after each epoch (the first ones of the split).
VALIDATION_SCENES = 32

# The elements of a training step's largest array: 16 times the default's.
MAX_STEP_ELEMENTS = 1 << 26

class TrainingAborted(RuntimeError):
    """Raised when a non-finite loss or gradient stops a run; statistics are on disk."""


@dataclass
class RunConfig:
    seed: int = 0
    dtype: str = "float32"
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    prompt: PromptConfig = field(default_factory=PromptConfig)
    loss: LossWeights = field(default_factory=LossWeights)
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    optimizer: OptimConfig = field(default_factory=OptimConfig)
    batch_size: int = 16
    epochs: int = 20
    train_samples: int = 512
    eval_samples: int = 64
    val_fraction: float = 0.2
    warmup_epochs: int = 3
    warmup_lr: float = 3e-3
    out_dir: str = "runs/default"

    def __post_init__(self):
        if self.dtype not in ("float64", "float32"):
            raise ContractViolation(f"dtype must be float64 or float32, got {self.dtype!r}")
        # Ceilings at 16 times the default's memory: B² decodes a step, held scenes.
        if not 2 <= self.batch_size <= 64:
            raise ContractViolation(
                f"batch_size must be in [2, 64] (contrastive pairs), got {self.batch_size}")
        if self.train_samples > 8192:
            raise ContractViolation(f"train_samples must be <= 8192, got {self.train_samples}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ContractViolation("val_fraction outside [0, 1)")
        n_train = self.train_samples - self.n_val
        if n_train < 2:
            raise ContractViolation(
                f"train_samples {self.train_samples} with val_fraction {self.val_fraction} "
                f"leaves {n_train} training scenes; need >= 2")
        if self.eval_samples < 1:
            raise ContractViolation(f"eval_samples must be >= 1, got {self.eval_samples}")
        for name in ("seed", "epochs", "warmup_epochs"):
            if getattr(self, name) < 0:
                raise ContractViolation(f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.warmup_lr > 0:
            raise ContractViolation(f"warmup_lr must be > 0, got {self.warmup_lr}")
        if self.generator.image_size != self.encoder.image_size:
            raise ContractViolation(
                f"generator image_size {self.generator.image_size} differs from "
                f"encoder image_size {self.encoder.image_size}")
        if self.encoder.embed_dim % BOTTLENECK_RATIO:
            raise ContractViolation(
                f"encoder embed_dim {self.encoder.embed_dim} not divisible by "
                f"{BOTTLENECK_RATIO}, the meta-net's bottleneck ratio")
        # Fused prompts are the M context tokens; otherwise the audio token is one more.
        prompt_len = self.prompt.context_length + (self.prompt.fusion_mode != "fused")
        if prompt_len > self.encoder.max_text_len:
            raise ContractViolation(
                f"context_length {self.prompt.context_length} makes prompts of {prompt_len} "
                f"tokens, more than encoder max_text_len {self.encoder.max_text_len}")
        # Each size field has its own ceiling, but several near theirs at once
        # can still make an array no run could allocate.
        name, size = max(self._step_arrays(prompt_len).items(), key=lambda kv: kv[1])
        if size > MAX_STEP_ELEMENTS:
            raise ContractViolation(
                f"batch_size {self.batch_size} with this encoder and prompt makes a step's "
                f"{name} {size} elements, more than {MAX_STEP_ELEMENTS}")

    def _step_arrays(self, prompt_len: int) -> dict[str, int]:
        """Elements of a training step's largest arrays, each over the B² pairs."""
        enc, pairs = self.encoder, self.batch_size ** 2
        cells, heads = enc.n_cells, enc.text_heads
        prompts = pairs * (prompt_len if self.prompt.fusion_mode == "ensemble" else 1)
        return {"decoder rows": pairs * cells * enc.embed_dim,
                "decoder attention scores": pairs * heads * cells * cells,
                "masked images": pairs * enc.image_size ** 2 * CHANNELS,
                "text MLP rows": prompts * prompt_len * 4 * enc.embed_dim,
                "text attention scores": prompts * heads * prompt_len ** 2}

    @property
    def n_val(self) -> int:
        """Validation scenes split off the training scenes."""
        return int(round(self.val_fraction * self.train_samples))

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Build a config from its JSON form.  Unknown keys at every level
        are named in one message before any value's type is checked."""
        top = _json_object(d, "run config")
        blocks = {name: _json_object(top.pop(name, {}), f"{name} block") for name in _BLOCKS}
        levels = [("run config", cls, top)] + [
            (f"{name} block", kind, blocks[name]) for name, kind in _BLOCKS.items()]
        unknown = "; ".join(
            f"in {where}: {', '.join(keys)}" for where, kind, obj in levels
            if (keys := sorted(set(obj) - {f.name for f in fields(kind)})))
        if unknown:
            raise ContractViolation(f"unknown key(s) {unknown}")
        for where, kind, obj in levels:
            _check_types(kind, obj, where)
        return cls(**{name: kind(**blocks[name]) for name, kind in _BLOCKS.items()}, **top)

    def save(self, path: str | Path) -> None:
        formats.write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))


_BLOCKS = {"encoder": EncoderConfig, "prompt": PromptConfig, "loss": LossWeights,
           "generator": GeneratorConfig, "optimizer": OptimConfig}


def _json_object(d, where: str) -> dict:
    """A copy of ``d``, which must be a JSON object."""
    if not isinstance(d, dict):
        raise ContractViolation(f"{where} must be a JSON object, got {type(d).__name__}")
    return dict(d)


def _check_types(kind, d: dict, where: str) -> None:
    """Check that each of ``d``'s values fits the type ``kind`` annotates
    for its field."""
    hints = typing.get_type_hints(kind)
    for name, value in d.items():
        hint = hints[name]
        if not _fits(value, hint):
            label = ("finite float" if hint is float else
                     hint.__name__ if isinstance(hint, type) else str(hint))
            raise ContractViolation(
                f"{where} field {name!r} must be {label.replace('NoneType', 'None')}, "
                f"got {value!r}")


def _fits(value, hint) -> bool:
    """Whether a JSON value can stand for a field annotated ``hint``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, a) for a in args)
    if origin is tuple:
        return (isinstance(value, (list, tuple)) and len(value) == len(args)
                and all(_fits(v, a) for v, a in zip(value, args)))
    if hint is float:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, origin or hint)


def run_metadata() -> dict:
    """numpy, its BLAS ("?" before numpy 1.26), BLAS and block threads, scene
    processes, memory retention."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": {v: os.environ.get(v) for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "block_threads": ad.block_threads(),
            "synth_processes": synth.scene_processes(),
            "freed_memory_kept": ad.FREED_MEMORY_KEPT}


@dataclass
class TrainLog:
    run: dict = field(default_factory=dict)
    steps: list = field(default_factory=list)
    val_history: list = field(default_factory=list)
    warmup_stats: dict = field(default_factory=dict)
    trainable_params: int = 0
    total_params: int = 0
    frozen_checksum_before: str = ""
    frozen_checksum_after: str = ""
    final_loss: float = float("nan")
    wall_clock_sec: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)


# -- small helpers -----------------------------------------------------------

def stack_batch(samples: list[SceneSample]) -> tuple[np.ndarray, np.ndarray]:
    images = np.stack([s.image for s in samples])
    audios = np.stack([s.audio for s in samples])
    return images, audios


def parameter_checksum(params: dict[str, Tensor]) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(params[name].data.tobytes())
    return h.hexdigest()


def split_scenes(cfg: RunConfig) -> tuple[list[SceneSample], list[SceneSample]]:
    """The run's training scenes, split by its seed into (train, validation)."""
    scenes = list(synth.SceneStream(cfg.generator, cfg.train_samples, "train",
                                    base_seed=cfg.seed))
    split_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 11]))
    perm = split_rng.permutation(len(scenes))
    return [scenes[i] for i in perm[cfg.n_val:]], [scenes[i] for i in perm[:cfg.n_val]]


def build_model(cfg: RunConfig) -> SoundLocalizer:
    return SoundLocalizer(cfg.encoder, cfg.prompt, seed=cfg.seed, dtype=cfg.np_dtype)


def _snap_float32(model: SoundLocalizer) -> None:
    """Round every parameter to its nearest float32 value (keeping dtype)."""
    for p in model.parameters().values():
        p.data = p.data.astype(np.float32).astype(model.dtype)


def batch_loss(model: SoundLocalizer, images: np.ndarray, audios: np.ndarray,
               weights: LossWeights) -> tuple[Tensor, dict[str, float]]:
    percept = model.perceive(images, audios)
    s_img, s_feat, pair_means, _ = model.similarity_tables(percept)
    l_img = infonce_symmetric(s_img, weights.temperature)
    l_feat = infonce_symmetric(s_feat, weights.temperature)
    l_reg = area_regularization(pair_means, weights.p_plus, weights.p_minus)
    total = total_loss(l_img, l_feat, l_reg, weights)
    parts = {"l_img": l_img.item(), "l_feat": l_feat.item(),
             "l_reg": l_reg.item(), "total": total.item()}
    return total, parts


# -- encoder warmup ----------------------------------------------------------

def warmup_loss(model: SoundLocalizer, protos: Tensor, images: np.ndarray,
                labels: np.ndarray) -> tuple[Tensor, int]:
    """Mean cross-entropy of each image cell scored against the (classes + 1, d)
    ``protos``, on (B, cells) ``labels``; also the count of cells scored right."""
    grid = model.image_encoder.forward(ad.constant(images.astype(model.dtype)))[0]
    logits = grid.reshape(labels.size, protos.shape[1]) @ ad.transpose(protos, (1, 0))
    logp = ad.log_softmax(logits, axis=-1)
    y = labels.reshape(-1)
    nll = -(logp[np.arange(y.size), y].mean())
    return nll, int((logits.data.argmax(axis=-1) == y).sum())


def warmup_image_encoder(model: SoundLocalizer, samples: list[SceneSample],
                         cfg: RunConfig) -> dict:
    """Supervised cell-classification alignment of the image encoder.

    Cell features are scored against learnable class prototypes (classes
    plus one background slot); cross-entropy on the cell's center-pixel
    label (``warmup_loss``) shapes the encoder before it is frozen.
    Prototypes are discarded afterwards.
    """
    k = cfg.generator.num_classes
    d = cfg.encoder.embed_dim
    g, p = cfg.encoder.grid_size, cfg.encoder.patch_size
    centers = np.arange(g) * p + p // 2
    cell_classes = np.stack([s.class_map[np.ix_(centers, centers)].reshape(-1) for s in samples])
    labels = np.where(cell_classes < 0, k, cell_classes)

    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 21]))
    protos = Tensor(rng.normal(0.0, 0.02, (k + 1, d)).astype(model.dtype),
                    requires_grad=True)
    enc_params = {f"image_encoder.{n}": t
                  for n, t in model.image_encoder.parameters().items()}
    for t in enc_params.values():
        t.requires_grad = True
    opt = Adam({**enc_params, "prototypes": protos},
               OptimConfig(lr=cfg.warmup_lr, weight_decay=0.0))

    n = len(samples)
    losses: list[float] = []
    acc = 0.0
    for _ in range(cfg.warmup_epochs):
        order = rng.permutation(n)
        correct = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            images, _ = stack_batch([samples[i] for i in idx])
            nll, hits = warmup_loss(model, protos, images, labels[idx])
            ad.backward(nll)
            opt.step()
            opt.zero_grad()
            losses.append(nll.item())
            correct += hits
            del nll                  # the step's graph, before the next is built
        acc = correct / labels.size          # each epoch visits every cell once
    return {"epochs": cfg.warmup_epochs, "final_cell_accuracy": acc,
            "first_loss": losses[0] if losses else None,
            "last_loss": losses[-1] if losses else None}


# -- training ----------------------------------------------------------------

def train(cfg: RunConfig, write_artifacts: bool = True
          ) -> tuple[SoundLocalizer, TrainLog]:
    """Full training run; returns the model plus its log.

    Artifacts under ``cfg.out_dir``: ``config.json``, ``model.splt``,
    ``trainlog.json`` (and ``abort_stats.json`` if the loss or a gradient
    went non-finite).
    """
    t_start = time.perf_counter()
    out = Path(cfg.out_dir) if write_artifacts else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        cfg.save(out / "config.json")

    train_scenes, val_scenes = split_scenes(cfg)
    model = build_model(cfg)
    log = TrainLog(run=run_metadata())
    log.warmup_stats = warmup_image_encoder(model, train_scenes, cfg)
    model.apply_freezing()
    # Freeze on float32-representable values so the end-of-run snap (needed
    # for exact checkpoint round-trips) cannot move frozen parameters.
    _snap_float32(model)

    log.frozen_checksum_before = parameter_checksum(model.encoder_parameters())
    params = model.trainable_parameters()
    log.trainable_params = sum(p.size for p in params.values())
    log.total_params = model.num_params()

    opt = Adam(params, cfg.optimizer)
    batch_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 12]))

    step = 0
    for epoch in range(cfg.epochs):
        order = batch_rng.permutation(len(train_scenes))
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            if idx.size < 2:
                continue
            images, audios = stack_batch([train_scenes[i] for i in idx])
            total, parts = batch_loss(model, images, audios, cfg.loss)
            if not np.isfinite(parts["total"]):
                _abort(out, step, parts, model, f"non-finite loss at step {step}: {parts}")
            ad.backward(total)
            bad = [name for name, p in params.items()
                   if p.grad is not None and not np.isfinite(p.grad).all()]
            if bad:
                _abort(out, step, parts, model,
                       f"non-finite gradient at step {step}: {', '.join(bad)}")
            opt.step()
            opt.zero_grad()
            del total                # the step's graph, before the next is built
            log.steps.append({"epoch": epoch, "step": step, **parts})
            step += 1
        log.val_history.append(_validation_entry(model, val_scenes, epoch))

    _snap_float32(model)
    log.frozen_checksum_after = parameter_checksum(model.encoder_parameters())

    log.final_loss = _probe_loss(model, cfg, train_scenes, val_scenes)
    log.wall_clock_sec = time.perf_counter() - t_start

    if out is not None:
        save_model(out / "model.splt", model)
        formats.write_json(out / "trainlog.json", log.as_dict())
    return model, log


def final_loss_of(model: SoundLocalizer, cfg: RunConfig) -> float:
    """Recompute the canonical post-training loss (see ``train``)."""
    return _probe_loss(model, cfg, *split_scenes(cfg))


def _probe_loss(model: SoundLocalizer, cfg: RunConfig, train_scenes: list[SceneSample],
                val_scenes: list[SceneSample]) -> float:
    """Loss on a fixed batch; a reloaded checkpoint must reproduce it bit for bit."""
    probe = (val_scenes or train_scenes)[: cfg.batch_size]
    with ad.no_grad():
        _, parts = batch_loss(model, *stack_batch(probe), cfg.loss)
    return parts["total"]


def _validation_entry(model: SoundLocalizer, val_scenes: list[SceneSample],
                      epoch: int) -> dict:
    subset = val_scenes[:VALIDATION_SCENES]
    if not subset:
        return {"epoch": epoch}
    evs = predict_eval_samples(model, subset)
    miou, _ = metrics.miou_fscore(evs)
    return {"epoch": epoch, "ciou": metrics.ciou(evs), "miou": miou}


def _abort(out: Path | None, step: int, parts: dict, model: SoundLocalizer,
           what: str) -> typing.NoReturn:
    """Write the parameters' statistics to ``out / "abort_stats.json"`` when
    the run has a directory, then stop the run with ``what``."""
    if out is not None:
        stats = {"step": step, "loss_parts": parts, "params": {}}
        for name, p in model.parameters().items():
            entry = {"data_absmax": float(np.abs(p.data).max()),
                     "data_finite": bool(np.isfinite(p.data).all())}
            if p.grad is not None:
                entry["grad_absmax"] = float(np.abs(p.grad).max())
                entry["grad_finite"] = bool(np.isfinite(p.grad).all())
            stats["params"][name] = entry
        formats.write_json(out / "abort_stats.json", stats)
    raise TrainingAborted(what)


# -- checkpoint plumbing -----------------------------------------------------

def save_model(path: str | Path, model: SoundLocalizer) -> None:
    ckpt_io.save_checkpoint(path, {k: v.data for k, v in model.parameters().items()})


def load_model(cfg: RunConfig, path: str | Path) -> SoundLocalizer:
    model = build_model(cfg)
    model.load_state(ckpt_io.load_checkpoint(path))
    model.apply_freezing()
    return model


# -- evaluation --------------------------------------------------------------

def benchmark_stream(cfg: RunConfig, benchmark: str) -> synth.SceneStream:
    """A benchmark's scenes, made as they are iterated."""
    if benchmark not in BENCHMARKS:
        raise ContractViolation(
            f"benchmark must be one of {sorted(BENCHMARKS)}, got {benchmark!r}")
    return synth.SceneStream(cfg.generator, cfg.eval_samples,
                             BENCHMARKS[benchmark], base_seed=cfg.seed)


def benchmark_scenes(cfg: RunConfig, benchmark: str) -> list[SceneSample]:
    return list(benchmark_stream(cfg, benchmark))


def _score_chunk(model: SoundLocalizer, scenes: list[SceneSample]
                 ) -> tuple[np.ndarray, list[tuple]]:
    """What ``EvalSample`` needs of a chunk's scenes: their predicted masks, in
    the model's dtype, and each scene's ``(gt_mask, flags, gt_box_mask)``."""
    return (model.predict_masks(*stack_batch(scenes)),
            [(s.gt_mask, s.flags, s.gt_box_mask) for s in scenes])


def _score_stream_chunk(model: SoundLocalizer, stream: synth.SceneStream,
                        k: int) -> tuple[np.ndarray, list[tuple]]:
    """Chunk ``k`` of ``stream``, made and scored by ``model``."""
    return _score_chunk(model, stream.chunk(k))


def predict_eval_samples(model: SoundLocalizer, scenes: Iterable[SceneSample]
                         ) -> list[metrics.EvalSample]:
    """Score ``scenes`` a chunk of ``PREDICT_CHUNK`` at a time.

    A ``SceneStream`` has its chunks shared with the scene worker
    (``synth.alternate``): the model travels to it once per call, pickled
    with the stream, and the worker makes and scores the odd chunks while this
    process makes and scores the even ones.  Any other iterable, or a model
    that does not pickle, is scored here."""
    if isinstance(scenes, synth.SceneStream):
        chunks = synth.alternate(scenes.chunks,
                                 functools.partial(_score_stream_chunk, model, scenes))
    else:
        scenes = iter(scenes)
        parts = iter(lambda: list(itertools.islice(scenes, PREDICT_CHUNK)), [])
        chunks = (_score_chunk(model, part) for part in parts)
    out = []
    for preds, truths in chunks:
        out += [metrics.EvalSample(pred_mask=pred.astype(np.float64), gt_mask=gt,
                                   flags=flags, gt_box_mask=box)
                for pred, (gt, flags, box) in zip(preds, truths)]
    return out


def evaluate(model: SoundLocalizer, cfg: RunConfig, benchmark: str,
             out_dir: str | Path | None = None) -> metrics.MetricsReport:
    """Score one benchmark; optionally write the CSV report and JSON twin."""
    evs = predict_eval_samples(model, benchmark_stream(cfg, benchmark))
    report = metrics.compute_report(evs)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_report(out, benchmark, report, evs)
    return report


def _fmt(v) -> str:
    return "nan" if v is None else repr(float(v))


def _write_csv(path: Path, rows: list[dict]) -> None:
    """``rows`` under a header of the first row's keys; a float or None cell
    is written by ``_fmt``."""
    text = io.StringIO()
    w = csv.writer(text)
    w.writerow(rows[0].keys())
    for r in rows:
        w.writerow([_fmt(v) if v is None or isinstance(v, float) else v
                    for v in r.values()])
    formats.write_file(path, text.getvalue().encode())


def write_report(out: Path, benchmark: str, report: metrics.MetricsReport,
                 evs: list[metrics.EvalSample]) -> None:
    row = report.as_dict()
    _write_csv(out / f"report_{benchmark}.csv", [{"benchmark": benchmark, **row}])
    twin = {
        "benchmark": benchmark,
        "metrics": row,
        "metadata": report.metadata,
        "per_sample": [
            {"iou": report.per_sample_iou[i],
             "confidence": evs[i].confidence,
             "flags": evs[i].flags.as_dict()}
            for i in range(len(evs))
        ],
    }
    formats.write_json(out / f"report_{benchmark}.json", twin)


# -- ablations ---------------------------------------------------------------

def token_order_label(m: int, position: int) -> str:
    """Printable prompt layout, audio token bracketed at its slot."""
    tokens = [f"[V_{i}]" for i in range(1, m + 1)]
    tokens.insert(position - 1, "[V_A]")
    return "".join(tokens)


# Each swept dimension: how a value edits the config's JSON form (which
# ``RunConfig.from_dict`` then checks), and the label fields of its row.
ABLATIONS = {
    "context_length": (lambda d, v: d["prompt"].update(context_length=v, va_position=None),
                       lambda v, cfg: {"ctx": f"ctx={v}"}),
    "va_position": (lambda d, v: d["prompt"].update(context_length=4, va_position=v),
                    lambda v, cfg: {"ctx": "ctx=4", "va_index": f"pos={v}",
                                    "token_order": token_order_label(4, v)}),
    "fusion": (lambda d, v: d["prompt"].update(fusion_mode=v),
               lambda v, cfg: {"method": "soundloc", "fusion": "yes" if v == "fused" else "",
                               "ensemble": "yes" if v == "ensemble" else ""}),
    "epochs": (lambda d, v: d.update(epochs=v),
               lambda v, cfg: {"ctx": f"ctx={cfg.prompt.context_length}", "epochs": v}),
}
ABLATION_DIMENSIONS = tuple(ABLATIONS)


def ablate(cfg: RunConfig, dimension: str, values: list,
           out_dir: str | Path | None = None) -> list[dict]:
    """One train+evaluate per value; emits a table mirroring the ablation
    tables' layout (rows = values, columns = label fields + ciou + auc).
    The dimension, the value list and every variant config are checked
    before the first run, so a bad sweep fails before any training."""
    if dimension not in ABLATIONS:
        raise ContractViolation(
            f"dimension must be one of {ABLATION_DIMENSIONS}, got {dimension!r}")
    if not values:
        raise ContractViolation("an ablation needs at least one value")
    edit, label = ABLATIONS[dimension]
    subs = []
    for value in values:
        d = cfg.to_dict()
        edit(d, value)
        subs.append(RunConfig.from_dict(d))
    rows = []
    for value, sub in zip(values, subs):
        model, _ = train(sub, write_artifacts=False)
        report = evaluate(model, sub, "s4-analog")
        rows.append({**label(value, sub), "ciou": report.ciou, "auc": report.auc})
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / f"ablation_{dimension}.csv", rows)
        formats.write_json(out / f"ablation_{dimension}.json", rows)
    return rows


# -- rendering ---------------------------------------------------------------

def render_heatmaps(model: SoundLocalizer, scenes: Iterable[SceneSample],
                    out_dir: str | Path) -> list[dict]:
    """Write predicted/GT/difference masks per sample plus an index."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    evs = predict_eval_samples(model, scenes)
    index = []
    for i, ev in enumerate(evs):
        stem = f"sample_{i:05d}"
        files = {"pred": f"{stem}_pred.pgm", "gt": f"{stem}_gt.pgm",
                 "diff": f"{stem}_diff.pgm"}
        gt = ev.gt_mask.astype(np.float64)
        formats.write_pgm(out / files["pred"], ev.pred_mask)
        formats.write_pgm(out / files["gt"], gt)
        formats.write_pgm(out / files["diff"], np.abs(ev.pred_mask - gt))
        index.append({"id": i, "files": files,
                      "iou": metrics.iou(metrics.binarize_half_max(ev.pred_mask),
                                         ev.gt_mask)})
    formats.write_json(out / "index.json", index)
    return index
