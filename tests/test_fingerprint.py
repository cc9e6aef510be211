"""A float64 trajectory fingerprint: what a short training run computes,
independent of how it rounds.

Three small float64 runs, with ``none``, ``fused`` and ``ensemble`` prompts,
each train one warmup epoch and then 24 Adam steps.  Each run is compared
with its golden in ``fingerprint_float64.json`` on four groups of figures:
the per-step losses; per-tensor norms of the trainable parameters; fixed
random projections of all of them as one vector; and fixed random
projections of the masks that ``predict_masks`` gives on four fixed scenes.
The golden holds no raw bytes, so it should hold on another BLAS too.

In float64, changes that only round differently and real errors lie far
apart.  Measured on this config, as differences relative to the golden:

- rounding only: one GEMM over all rows for ``linear``'s weight gradient
  moved no figure of any run by more than 9.0e-14, and a softmax normalised
  by a reciprocal (``attention`` and ``softmax``) by more than 8.9e-14;
- planted errors: every ``linear`` bias gradient times 1 + 1e-6 moved the
  tensor norms of every run by at least 2.4e-7 and the parameter
  projections by at least 2.4e-9 (times 1 + 1e-4: 2.4e-5 and 2.4e-7).

``TOLERANCE`` sits between the two bands.  The float32 snap at the end of
``train`` is switched off, as it would round most such errors away.  Key
biases that softmax cancels (``attn.bk``, ``tokenizer.key_b``) are left out:
their gradient is rounding noise, which Adam scales up to steps of ``lr``.

The golden changes only when the computation does.  Rewrite it with
``PYTHONPATH=src python tests/test_fingerprint.py`` and say why in
CHANGES.md.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from soundloc import harness, synth
from soundloc.harness import RunConfig
from soundloc.prompting import PromptConfig

GOLDEN = Path(__file__).with_name("fingerprint_float64.json")
FUSIONS = ("none", "fused", "ensemble")
TOLERANCE = 1e-11
CANCELLED = ("attn.bk", "tokenizer.key_b")


def fingerprint(fusion: str) -> dict:
    """The figures of one run; the float32 snap must be off."""
    cfg = RunConfig(seed=3, dtype="float64", batch_size=4, train_samples=40, epochs=3,
                    warmup_epochs=1, eval_samples=4, prompt=PromptConfig(fusion_mode=fusion))
    model, log = harness.train(cfg, write_artifacts=False)
    params = {name: p.data for name, p in sorted(model.trainable_parameters().items())
              if not name.endswith(CANCELLED)}
    theta = np.concatenate([p.ravel() for p in params.values()])
    masks = model.predict_masks(*harness.stack_batch(
        synth.make_batch(cfg.generator, 4, "s4", base_seed=7))).ravel()
    rng = np.random.default_rng(0)
    return {"losses": [step["total"] for step in log.steps],
            "norms": {name: float(np.linalg.norm(p)) for name, p in params.items()},
            "params_norm": float(np.linalg.norm(theta)),
            "params_projections": (rng.standard_normal((32, theta.size)) @ theta).tolist(),
            "masks_norm": float(np.linalg.norm(masks)),
            "masks_projections": (rng.standard_normal((16, masks.size)) @ masks).tolist()}


def relative_differences(got: dict, want: dict) -> dict[str, float]:
    """Each group's worst difference, relative to the golden's own scale."""
    def worst(a, b, scale):
        return float(np.max(np.abs(np.subtract(a, b)) / scale))
    names = list(want["norms"])
    return {
        "losses": worst(got["losses"], want["losses"], np.abs(want["losses"])),
        "norms": worst([got["norms"][n] for n in names], [want["norms"][n] for n in names],
                       np.array([want["norms"][n] for n in names])),
        "params_projections": worst(got["params_projections"], want["params_projections"],
                                    want["params_norm"]),
        "masks_projections": worst(got["masks_projections"], want["masks_projections"],
                                   want["masks_norm"]),
    }


@pytest.mark.parametrize("fusion", FUSIONS)
def test_float64_trajectory_matches_golden(fusion, monkeypatch):
    monkeypatch.setattr(harness, "_snap_float32", lambda model: None)
    got, want = fingerprint(fusion), json.loads(GOLDEN.read_text())[fusion]
    assert list(got["norms"]) == list(want["norms"])
    assert len(got["losses"]) == len(want["losses"])
    diffs = relative_differences(got, want)
    assert max(diffs.values()) <= TOLERANCE, diffs


if __name__ == "__main__":
    harness._snap_float32 = lambda model: None
    GOLDEN.write_text(json.dumps({f: fingerprint(f) for f in FUSIONS}, indent=1) + "\n")
