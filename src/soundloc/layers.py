"""Parameter containers and the attention blocks shared by model parts."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import CheckpointError


class Module:
    """Minimal parameter registry with hierarchical, insertion-ordered names."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._children: dict[str, "Module"] = {}

    def param(self, name: str, data: np.ndarray) -> Tensor:
        t = Tensor(data, requires_grad=True)
        self._params[name] = t
        return t

    def child(self, name: str, module: "Module") -> "Module":
        self._children[name] = module
        return module

    def parameters(self) -> dict[str, Tensor]:
        out = dict(self._params)
        for cname, c in self._children.items():
            for k, v in c.parameters().items():
                out[f"{cname}.{k}"] = v
        return out

    def to_dtype(self, dtype) -> None:
        for p in self.parameters().values():
            p.data = p.data.astype(dtype)

    def num_params(self) -> int:
        return sum(p.size for p in self.parameters().values())

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Copy ``state`` into the parameters; names and shapes must match exactly."""
        own = self.parameters()
        missing = [k for k in own if k not in state]
        unexpected = [k for k in state if k not in own]
        misshaped = [f"{k} {tuple(state[k].shape)} where the model has {own[k].shape}"
                     for k in own if k in state and tuple(state[k].shape) != own[k].shape]
        problems = [f"{label}: {', '.join(names)}" for label, names in (
            ("missing", missing), ("unexpected", unexpected), ("mis-shaped", misshaped))
            if names]
        if problems:
            raise CheckpointError("state does not fit the model; " + "; ".join(problems))
        for name, tensor in own.items():
            tensor.data = state[name].astype(tensor.dtype)


def normal_init(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    return rng.normal(0.0, std, size=shape)


class MultiHeadAttention(Module):
    def __init__(self, d: int, heads: int, rng: np.random.Generator):
        super().__init__()
        if d % heads:
            raise ad.ContractViolation(f"attention: dim {d} not divisible by {heads} heads")
        self.d = d
        self.heads = heads
        self.dh = d // heads
        self.wq = self.param("wq", normal_init(rng, (d, d)))
        self.wk = self.param("wk", normal_init(rng, (d, d)))
        self.wv = self.param("wv", normal_init(rng, (d, d)))
        self.wo = self.param("wo", normal_init(rng, (d, d)))
        self.bq = self.param("bq", np.zeros(d))
        self.bk = self.param("bk", np.zeros(d))
        self.bv = self.param("bv", np.zeros(d))
        self.bo = self.param("bo", np.zeros(d))

    def forward(self, x: Tensor, causal: bool = False) -> Tensor:
        b, t, d = x.shape

        def split(v):
            return ad.transpose(v.reshape(b, t, self.heads, self.dh), (0, 2, 1, 3))

        q = split(x @ self.wq + self.bq)
        k = split(x @ self.wk + self.bk)
        v = split(x @ self.wv + self.bv)
        scores = (q @ ad.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(self.dh))
        if causal:
            mask = np.triu(np.ones((t, t), dtype=bool), k=1)
            scores = ad.masked_fill(scores, mask, -np.inf)
        attn = ad.softmax(scores, axis=-1)
        out = ad.transpose(attn @ v, (0, 2, 1, 3)).reshape(b, t, d)
        return out @ self.wo + self.bo


class TransformerBlock(Module):
    """Pre-norm residual block; ``mlp_ratio=0`` drops the feed-forward sublayer."""

    def __init__(self, d: int, heads: int, rng: np.random.Generator,
                 mlp_ratio: int = 4, causal: bool = False):
        super().__init__()
        self.causal = causal
        self.mlp_ratio = mlp_ratio
        self.ln1_g = self.param("ln1_g", np.ones(d))
        self.ln1_b = self.param("ln1_b", np.zeros(d))
        self.attn = self.child("attn", MultiHeadAttention(d, heads, rng))
        if mlp_ratio:
            hidden = d * mlp_ratio
            self.ln2_g = self.param("ln2_g", np.ones(d))
            self.ln2_b = self.param("ln2_b", np.zeros(d))
            self.w1 = self.param("w1", normal_init(rng, (d, hidden)))
            self.b1 = self.param("b1", np.zeros(hidden))
            self.w2 = self.param("w2", normal_init(rng, (hidden, d)))
            self.b2 = self.param("b2", np.zeros(d))

    def forward(self, x: Tensor) -> Tensor:
        x = x + self.attn.forward(ad.layer_norm(x, self.ln1_g, self.ln1_b),
                                  causal=self.causal)
        if self.mlp_ratio:
            h = ad.relu(ad.layer_norm(x, self.ln2_g, self.ln2_b) @ self.w1 + self.b1)
            x = x + (h @ self.w2 + self.b2)
        return x
