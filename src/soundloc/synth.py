"""Synthetic audio-visual scenes with exact ground truth.

Each of K classes owns a striped disc appearance and a two-tone audio
signature whose frequencies sit exactly on filterbank band centers, so
band energies of mixtures are additive and silence is exactly zero.
Scenes are fully determined by a seed: same spec, same bytes.

Benchmarks are emulated as modes: single-source (``train``/``s4``),
multi-source (``ms3``), a negatives-heavy ``extended`` mix (matched /
mismatched-audio / silent), and the open-set ``heard``/``unheard`` class
splits.

When the process has more than one CPU, a forked worker computes every other
chunk (see ``alternate``) from a job pickled to it once per call: it makes the
chunks of an iterated ``SceneStream``, and makes and scores them, with the model
in the job, for ``harness.predict_eval_samples``.  Every scene comes from its
own seed, so the bytes do not depend on the CPU count.
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import itertools
import os
import pickle
import signal
import threading
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import audiofeat, formats
from . import autodiff as ad
from .autodiff import ContractViolation
from .encoders import MAX_IMAGE_SIZE

MODES = ("train", "s4", "ms3", "extended", "heard", "unheard")

# (bright, dark) stripe colors per class; chosen for pairwise contrast.
PALETTE = (
    ((0.90, 0.10, 0.10), (0.50, 0.05, 0.05)),
    ((0.10, 0.90, 0.10), (0.05, 0.50, 0.05)),
    ((0.15, 0.25, 0.95), (0.05, 0.10, 0.50)),
    ((0.90, 0.90, 0.10), (0.50, 0.50, 0.05)),
    ((0.90, 0.10, 0.90), (0.50, 0.05, 0.50)),
    ((0.10, 0.90, 0.90), (0.05, 0.50, 0.50)),
    ((0.95, 0.55, 0.10), (0.55, 0.30, 0.05)),
    ((0.60, 0.30, 0.90), (0.35, 0.15, 0.50)),
)
# Each class needs a stripe color pair and a two-band audio signature.
MAX_CLASSES = min(len(PALETTE), audiofeat.N_BANDS // 2)

MAX_PLACEMENT_TRIES = 200
OVERLAP_LIMIT = 0.3
# The generator's snr_db bounds, inside the band where a small float32 run
# was measured finite (-350 to 3080 dB; it failed at -400 and 3090 dB).
SNR_DB_RANGE = (-100.0, 300.0)
# Scenes per chunk: per ``SceneStream`` chunk, the unit the scene worker
# shares, and per ``predict_masks`` call when scoring.
PREDICT_CHUNK = 32


class SceneSpecError(ContractViolation):
    """The scene description violates placement or class constraints."""


@dataclass
class GeneratorConfig:
    """Scene universe. ``train_class_count`` defaults to all classes;
    open-set (heard/unheard) experiments shrink it, typically to half."""
    num_classes: int = 8
    image_size: int = 32
    single_radius: tuple[int, int] = (7, 11)
    multi_radius: tuple[int, int] = (4, 6)
    snr_db: float = 30.0
    mismatch_fraction: float = 0.25
    silent_fraction: float = 0.25
    train_class_count: int | None = None     # None means num_classes

    def __post_init__(self):
        if not 1 <= self.num_classes <= MAX_CLASSES:
            raise ContractViolation(
                f"num_classes must be in [1, {MAX_CLASSES}], got {self.num_classes}")
        if self.train_class_count is None:
            self.train_class_count = self.num_classes
        if not 0 < self.train_class_count <= self.num_classes:
            raise ContractViolation("train_class_count outside [1, num_classes]")
        mismatch, silent = self.mismatch_fraction, self.silent_fraction
        if not (min(mismatch, silent) >= 0 and mismatch + silent <= 1):   # refuses NaN too
            raise ContractViolation(f"mismatch_fraction {mismatch} and silent_fraction "
                                    f"{silent} must each be in [0, 1] and sum to at most 1")
        if self.image_size > MAX_IMAGE_SIZE:
            raise ContractViolation(f"image_size must be <= {MAX_IMAGE_SIZE}, got {self.image_size}")
        if not SNR_DB_RANGE[0] <= self.snr_db <= SNR_DB_RANGE[1]:
            raise ContractViolation(f"snr_db {self.snr_db} outside {list(SNR_DB_RANGE)} dB")
        for name in ("single_radius", "multi_radius"):
            setattr(self, name, tuple(getattr(self, name)))     # JSON gives a list
            lo, hi = getattr(self, name)
            if not 2 <= lo <= hi or 2 * hi >= self.image_size:
                raise ContractViolation(
                    f"{name} ({lo}, {hi}) needs 2 <= lo <= hi and 2 * hi < "
                    f"image_size {self.image_size}")

    @property
    def train_class_set(self) -> tuple[int, ...]:
        return tuple(range(self.train_class_count))

    @property
    def test_class_set(self) -> tuple[int, ...]:
        return tuple(range(self.train_class_count, self.num_classes))


@dataclass
class SceneSpec:
    seed: int
    objects: list[tuple[int, tuple[int, int], int]] = field(default_factory=list)
    audible_class_ids: tuple[int, ...] = ()
    silent: bool = False


@dataclass
class SceneFlags:
    matched: bool
    visible: bool
    audible: bool

    def as_dict(self) -> dict[str, bool]:
        return {"matched": self.matched, "visible": self.visible, "audible": self.audible}

    @property
    def positive(self) -> bool:
        return self.matched and self.visible and self.audible


@dataclass
class SceneSample:
    image: np.ndarray      # (S, S, 3) float64 in [0, 1]
    audio: np.ndarray      # (8000,) float64
    gt_mask: np.ndarray    # (S, S) bool: audible-and-visible object pixels
    gt_box_mask: np.ndarray  # (S, S) bool: union of bounding boxes of the same
    class_map: np.ndarray  # (S, S) int: class id per pixel, -1 for background
    flags: SceneFlags
    class_ids: tuple[int, ...]
    audible_ids: tuple[int, ...]
    seed: int


@functools.lru_cache(maxsize=4)
def _grid(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.mgrid`` row and column coordinates of a size x size image."""
    yy, xx = np.mgrid[0:size, 0:size]
    yy.flags.writeable = False
    xx.flags.writeable = False
    return yy, xx


@functools.lru_cache(maxsize=4 * len(PALETTE))
def _stripes(size: int, class_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (bright, dark) stripe masks of a class's disc appearance."""
    yy, xx = _grid(size)
    theta = np.pi * class_id / len(PALETTE)
    period = 3 + class_id % 3
    phase = np.floor((np.cos(theta) * xx + np.sin(theta) * yy) / period).astype(int)
    stripe = phase % 2 == 0
    gap = ~stripe
    stripe.flags.writeable = False
    gap.flags.writeable = False
    return stripe, gap


def _disc_mask(size: int, center: tuple[int, int], radius: int) -> np.ndarray:
    yy, xx = _grid(size)
    return (xx - center[0]) ** 2 + (yy - center[1]) ** 2 <= radius ** 2


def _paint_disc(image: np.ndarray, mask: np.ndarray, class_id: int) -> None:
    bright, dark = PALETTE[class_id]
    stripe, gap = _stripes(image.shape[0], class_id)
    image[mask & stripe] = bright
    image[mask & gap] = dark


def _validate_spec(spec: SceneSpec, num_classes: int) -> None:
    if not spec.objects and not spec.silent and not spec.audible_class_ids:
        raise SceneSpecError("scene has no objects and no audio")
    for cid, _, _ in spec.objects:
        if not 0 <= cid < num_classes:
            raise SceneSpecError(f"object class {cid} outside [0, {num_classes})")
    for cid in spec.audible_class_ids:
        if not 0 <= cid < num_classes:
            raise SceneSpecError(f"audible class {cid} outside [0, {num_classes})")
    if spec.silent and spec.audible_class_ids:
        raise SceneSpecError("silent scene cannot list audible classes")


def _validate_placement(spec: SceneSpec, size: int) -> list[np.ndarray]:
    masks = []
    for cid, (cx, cy), r in spec.objects:
        if r < 2:
            raise SceneSpecError(f"radius {r} below minimum 2")
        if not (r <= cx <= size - 1 - r and r <= cy <= size - 1 - r):
            raise SceneSpecError(f"disc at {(cx, cy)} radius {r} leaves the image")
        masks.append(_disc_mask(size, (cx, cy), r))
    for j in range(len(masks)):
        for i, frac in enumerate(_overlaps(masks[j], masks[:j])):
            if frac > OVERLAP_LIMIT:
                raise SceneSpecError(f"objects {i} and {j} overlap by {frac:.0%} of the smaller")
    return masks


def _overlaps(mask: np.ndarray, others: list[np.ndarray]) -> list[float]:
    """Overlap of ``mask`` with each of ``others`` as a fraction of the smaller disc."""
    area = np.count_nonzero(mask)
    return [np.count_nonzero(mask & o) / min(area, np.count_nonzero(o)) for o in others]


@functools.lru_cache(maxsize=None)
def _tone_ramp(bin_idx: int) -> np.ndarray:
    """Read-only phase ramp of a clip-long sinusoid on DFT bin ``bin_idx``.

    Only the 16 band-center bins carry tones, so the cache stays at 1 MiB.
    """
    n = np.arange(audiofeat.CLIP_LEN)
    ramp = 2 * np.pi * bin_idx * n / audiofeat.FRAME_LEN
    ramp.flags.writeable = False
    return ramp


def _synthesize_audio(audible: tuple[int, ...], silent: bool, snr_db: float,
                      rng: np.random.Generator) -> np.ndarray:
    signal = np.zeros(audiofeat.CLIP_LEN)
    if silent or not audible:
        return signal
    tone = np.empty(audiofeat.CLIP_LEN)
    power = 0.0
    for cid in audible:
        for bin_idx in audiofeat.class_tone_bins(cid):
            amp = rng.uniform(0.8, 1.2)
            phase = rng.uniform(0.0, 2 * np.pi)
            np.add(_tone_ramp(bin_idx), phase, out=tone)
            np.sin(tone, out=tone)
            tone *= amp
            signal += tone
            power += amp ** 2 / 2.0
    noise_var = power / 10.0 ** (snr_db / 10.0)
    signal += rng.normal(0.0, np.sqrt(noise_var), size=audiofeat.CLIP_LEN)
    return signal


def generate_scene(spec: SceneSpec, cfg: GeneratorConfig) -> SceneSample:
    """Render a scene spec into pixels, samples, and ground truth."""
    _validate_spec(spec, cfg.num_classes)
    size = cfg.image_size
    object_masks = _validate_placement(spec, size)
    # Sub-key 1 keeps the render stream distinct from the spec-building
    # stream in make_batch, which consumes SeedSequence(seed) directly.
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 1]))

    image = 0.08 + 0.10 * rng.random((size, size, 3))
    gt = np.zeros((size, size), dtype=bool)
    boxes = np.zeros((size, size), dtype=bool)
    class_map = np.full((size, size), -1, dtype=np.int64)
    placed = set()
    for (cid, center, radius), mask in zip(spec.objects, object_masks):
        _paint_disc(image, mask, cid)
        class_map[mask] = cid
        placed.add(cid)
        if cid in spec.audible_class_ids:
            gt |= mask
            x0, x1 = center[0] - radius, center[0] + radius
            y0, y1 = center[1] - radius, center[1] + radius
            boxes[max(y0, 0):y1 + 1, max(x0, 0):x1 + 1] = True

    audio = _synthesize_audio(spec.audible_class_ids, spec.silent, cfg.snr_db, rng)
    audible = bool(spec.audible_class_ids) and not spec.silent
    visible = all(cid in placed for cid in spec.audible_class_ids) if audible \
        else bool(spec.objects)
    flags = SceneFlags(matched=audible and visible, visible=visible, audible=audible)
    return SceneSample(image=image, audio=audio, gt_mask=gt, gt_box_mask=boxes,
                       class_map=class_map, flags=flags,
                       class_ids=tuple(cid for cid, _, _ in spec.objects),
                       audible_ids=spec.audible_class_ids, seed=spec.seed)


def _sample_seed(base_seed: int, mode: str, index: int) -> int:
    ss = np.random.SeedSequence([base_seed, MODES.index(mode), index])
    return int(ss.generate_state(1)[0])


def _place_objects(rng: np.random.Generator, cfg: GeneratorConfig, count: int,
                   classes: list[int]) -> list[tuple[int, tuple[int, int], int]]:
    lo, hi = cfg.single_radius if count == 1 else cfg.multi_radius
    size = cfg.image_size
    for _ in range(MAX_PLACEMENT_TRIES):
        objects = []
        masks = []
        for cid in classes[:count]:
            r = int(rng.integers(lo, hi + 1))
            cx = int(rng.integers(r, size - r))
            cy = int(rng.integers(r, size - r))
            mask = _disc_mask(size, (cx, cy), r)
            if any(frac > OVERLAP_LIMIT for frac in _overlaps(mask, masks)):
                break
            objects.append((cid, (cx, cy), r))
            masks.append(mask)
        else:
            return objects
    raise SceneSpecError(f"could not place {count} objects in {MAX_PLACEMENT_TRIES} tries")


def _build_spec(rng: np.random.Generator, cfg: GeneratorConfig, mode: str,
                seed: int, kind: str, class_pool: list[int]) -> SceneSpec:
    if mode == "ms3":
        count = int(rng.integers(2, min(4, len(class_pool) + 1)))
        classes = [int(c) for c in rng.choice(class_pool, size=count, replace=False)]
        objects = _place_objects(rng, cfg, count, classes)
        return SceneSpec(seed=seed, objects=objects, audible_class_ids=tuple(classes))
    target = int(rng.choice(class_pool))
    objects = _place_objects(rng, cfg, 1, [target])
    if kind == "matched":
        return SceneSpec(seed=seed, objects=objects, audible_class_ids=(target,))
    if kind == "mismatched":
        others = [c for c in range(cfg.num_classes) if c != target]
        heard = int(rng.choice(others))
        return SceneSpec(seed=seed, objects=objects, audible_class_ids=(heard,))
    return SceneSpec(seed=seed, objects=objects, silent=True)


def _batch_plan(cfg: GeneratorConfig, batch_size: int,
                mode: str) -> tuple[list[int], list[str]]:
    """The class pool and the kind of every scene of a batch; checks the contract."""
    if batch_size < 1:
        raise ContractViolation(f"batch_size must be >= 1, got {batch_size}")
    if mode not in MODES:
        raise ContractViolation(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "unheard" and not cfg.test_class_set:
        raise ContractViolation("unheard mode requires a nonempty held-out class set")
    if mode == "ms3" and cfg.num_classes < 2:
        raise ContractViolation("ms3 mode requires at least 2 classes for its multi-source scenes")

    if mode in ("train", "heard"):
        pool = list(cfg.train_class_set)
    elif mode == "unheard":
        pool = list(cfg.test_class_set)
    else:
        pool = list(range(cfg.num_classes))

    kinds = ["matched"] * batch_size
    if mode == "extended":
        n_mismatch = round(cfg.mismatch_fraction * batch_size)
        n_silent = round(cfg.silent_fraction * batch_size)
        if n_mismatch and cfg.num_classes < 2:
            raise ContractViolation(
                "extended mode requires at least 2 classes for its mismatched-audio scenes")
        if n_mismatch + n_silent > batch_size:
            raise ContractViolation(
                f"extended mode rounds its fractions to {n_mismatch} mismatched and "
                f"{n_silent} silent scenes, more than the batch of {batch_size}")
        for i in range(n_mismatch):
            kinds[i] = "mismatched"
        for i in range(n_mismatch, n_mismatch + n_silent):
            kinds[i] = "silent"
    return pool, kinds


def make_batch(cfg: GeneratorConfig, batch_size: int, mode: str, base_seed: int,
               start: int = 0, total: int | None = None) -> list[SceneSample]:
    """Generate ``batch_size`` scenes for one benchmark mode: scenes ``start``,
    ``start + 1``, ... of a ``total``-scene batch (by default this batch).

    Every scene comes from its own seed, so a part of a batch equals the
    same slice of the whole, whichever process makes it."""
    if batch_size < 1:
        raise ContractViolation(f"batch_size must be >= 1, got {batch_size}")
    pool, kinds = _batch_plan(cfg, batch_size if total is None else total, mode)
    if not 0 <= start <= len(kinds) - batch_size:
        raise ContractViolation(
            f"scenes {start} to {start + batch_size - 1} lie outside a batch of {len(kinds)}")
    samples = []
    for i in range(start, start + batch_size):
        seed = _sample_seed(base_seed, mode, i)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        spec = _build_spec(rng, cfg, mode, seed, kinds[i], pool)
        samples.append(generate_scene(spec, cfg))
    return samples


# -- the worker process --------------------------------------------------------
#
# Synthesis is Python around short numpy calls, so it holds the GIL and threads
# do not speed it up; a second process does.  The worker is forked at the first
# call of ``alternate`` that needs it, which costs no import and shares the
# parent's pages copy-on-write, and serves the rest of the process.  A forked
# child has no block pool (see ``autodiff``): it runs each job's blocks itself,
# which changes no byte.  After an error it is forked again, possibly once the
# block pool's threads exist: only from the thread that calls ``alternate``,
# between operations, and the child never touches the pool.

# One worker when the affinity mask holds more than one CPU and fork exists:
# two processes is the configuration that was measured (2 vCPUs), and each
# further worker would add ~35 MiB of PSS (measured in an evaluation) that a
# parent's peak RSS does not show.
_WORKERS = min(1, ad._WORKERS) if hasattr(os, "fork") else 0


class _Worker:
    """A forked process that answers each request ``(job, count)``, pickled on
    a pipe, with ``job(1)``, ``job(3)``, ... in order, pickled on another, None
    for an item that raised.  A worker that a pipe fails on is ended."""

    def __init__(self):
        """Fork the process; OSError if it cannot be forked."""
        req_r, req_w = os.pipe()
        rep_r, rep_w = os.pipe()
        # The child keeps SIGINT blocked for life, so a Ctrl-C meant for the
        # caller leaves it running; the parent unblocks once it holds the
        # worker, so a Ctrl-C cannot strand it.
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            try:
                pid = os.fork()
            except OSError:
                for fd in (req_r, req_w, rep_r, rep_w):
                    os.close(fd)
                raise
            if pid == 0:
                try:
                    os.close(req_w)
                    os.close(rep_r)
                    _serve(os.fdopen(req_r, "rb"), os.fdopen(rep_w, "wb"))
                finally:
                    os._exit(0)
            os.close(req_r)
            os.close(rep_w)
            self.pid: int | None = pid
            self.requests = os.fdopen(req_w, "wb")
            self.replies = os.fdopen(rep_r, "rb")
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})

    def post(self, job: Callable[[int], object], count: int) -> bool:
        """Send ``(job, count)``; False if the worker is gone or the job does
        not pickle, which is found before a byte is written."""
        try:
            request = pickle.dumps((job, count), pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        try:
            self.requests.write(request)
            self.requests.flush()
        except OSError:
            self.close()
            return False
        return True

    def reply(self):
        """The next result; None if its item raised or the worker is gone."""
        try:
            return pickle.load(self.replies)
        except (EOFError, OSError, pickle.UnpicklingError):
            self.close()
            return None

    def close(self) -> None:
        """End the process and reap it; a no-op once done."""
        if self.pid is None:
            return
        self.release()
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        self.pid = None

    def release(self) -> None:
        """Close this process's ends of the pipes."""
        for f in (self.requests, self.replies):
            with contextlib.suppress(OSError):
                f.close()


def _serve(requests, replies) -> None:
    """A worker's loop; it returns when the parent's end of ``requests`` closes
    or a job does not unpickle.  What it runs, it runs inline: it forks no
    worker of its own."""
    global _WORKERS
    _WORKERS = 0
    while True:
        try:
            job, count = pickle.load(requests)
        except Exception:       # EOFError: the parent is done with the worker
            return
        for k in range(1, count, 2):
            try:
                result = job(k)
            except Exception:
                result = None
            pickle.dump(result, replies, pickle.HIGHEST_PROTOCOL)
            replies.flush()
            del result          # not held while the next item is computed
        del job                 # nor while the next request waits


_worker: _Worker | None = None
_lock = threading.Lock()


def _forget_worker() -> None:
    """In a forked child: the parent's worker is not the child's to use."""
    global _worker, _lock
    if _worker is not None:
        _worker.release()
    _worker, _lock = None, threading.Lock()


def _close_worker() -> None:
    """End and reap the worker: at exit, and once ``alternate`` stops with replies unread."""
    global _worker
    if _worker is not None:
        _worker.close()
    _worker = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)
atexit.register(_close_worker)


def alternate(count: int, job: Callable[[int], object]) -> Iterator:
    """``job(0)``, ..., ``job(count - 1)`` in order, the worker computing the
    odd ones while this process computes the even ones.

    The worker is sent ``(job, count)`` once, pickled here before a byte is
    written, so ``job`` and its results must pickle, and no result may be
    None.  A job that does not pickle is computed here; one that does not
    unpickle ends the worker.  An item the worker did not send is computed here
    after the one before it, so the first error is the one computing everything
    here would raise.  An iteration that stops (an error, a KeyboardInterrupt
    or a close) with replies unread ends the worker, so no stale reply reaches
    a later call.  Everything is computed here without a worker, for fewer
    than two items, or while another call holds the worker: an iteration that
    is suspended, as a ``SceneStream`` read part way, or one on another thread."""
    global _worker, _WORKERS
    if not _WORKERS or count < 2 or not _lock.acquire(blocking=False):
        yield from map(job, range(count))
        return
    unread = count // 2         # until the request is known not to be sent
    try:
        if _worker is None or _worker.pid is None:
            try:
                _worker = _Worker()
            except OSError:     # no fork: every item inline from now on
                _worker, _WORKERS = None, 0
        if _worker is None or not _worker.post(job, count):
            unread = 0
        for k in range(count):
            result = None       # the last item is not held while this one is computed
            if k % 2 and unread:
                result = _worker.reply()
                unread = unread - 1 if _worker.pid is not None else 0
            yield job(k) if result is None else result
    finally:
        if unread:
            _close_worker()
        _lock.release()


def scene_processes() -> int:
    """Processes that share ``alternate``'s items: this one and its worker,
    if it has one (more than one CPU, and fork that has not failed)."""
    return 1 + _WORKERS


class SceneStream:
    """``make_batch``'s scenes, made a chunk of ``PREDICT_CHUNK`` at a time as
    the iteration reaches them, so only the current chunk and the scenes the
    caller keeps stay alive; the contract is checked at construction.

    ``len`` is the batch size and each chunk comes from one ``make_batch``
    call: perfbench's tracer counts scenes with ``len`` and times synthesis by
    wrapping ``make_batch``, so it sees a stream as a list.  A stream pickles
    to its arguments, so ``chunk`` is a job the scene worker can run: it makes
    the odd chunks while this process makes the even ones (``alternate``)."""

    def __init__(self, cfg: GeneratorConfig, batch_size: int, mode: str, base_seed: int):
        _batch_plan(cfg, batch_size, mode)
        self._batch = (cfg, batch_size, mode, base_seed)

    def __len__(self) -> int:
        return self._batch[1]

    @property
    def chunks(self) -> int:
        return -(-self._batch[1] // PREDICT_CHUNK)

    def chunk(self, k: int) -> list[SceneSample]:
        """Chunk ``k``: up to ``PREDICT_CHUNK`` scenes from scene ``k * PREDICT_CHUNK``."""
        if not 0 <= k < self.chunks:
            raise ContractViolation(f"chunk {k} outside [0, {self.chunks})")
        cfg, n, mode, base_seed = self._batch
        lo = k * PREDICT_CHUNK
        return make_batch(cfg, min(PREDICT_CHUNK, n - lo), mode, base_seed, lo, n)

    def __iter__(self) -> Iterator[SceneSample]:
        # chain drops each chunk before it asks for the next.
        yield from itertools.chain.from_iterable(alternate(self.chunks, self.chunk))


def dump_dataset(samples: Iterable[SceneSample], out_dir: str | Path) -> Path:
    """Write images, masks, and audio plus an ``index.json`` manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    index = []
    for i, s in enumerate(samples):
        stem = f"sample_{i:05d}"
        formats.write_ppm(out / f"{stem}_image.ppm", s.image)
        formats.write_pgm(out / f"{stem}_gt.pgm", s.gt_mask.astype(np.float64))
        formats.write_audio(out / f"{stem}_audio.spla", s.audio)
        index.append({
            "id": i,
            "files": {"image": f"{stem}_image.ppm", "gt": f"{stem}_gt.pgm",
                      "audio": f"{stem}_audio.spla"},
            "flags": s.flags.as_dict(),
            "class_ids": list(s.class_ids),
            "audible_ids": list(s.audible_ids),
            "seed": s.seed,
        })
    formats.write_json(out / "index.json", index)
    return out
