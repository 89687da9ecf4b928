"""A small GPT-style transformer in pure NumPy, with hand-written backprop.

This is the architectural stand-in for GPT-2: token + learned positional
embeddings, pre-norm residual blocks of causal multi-head self-attention and
a GELU MLP, a final layer norm, and a weight-tied output projection.  It
exists to demonstrate that the ReLM engine is model-agnostic — the engine
only consumes :meth:`TransformerModel.logprobs` — and to exercise the full
train/validate loop without PyTorch.

Sizes are kept tiny (CPU-trainable in seconds); the evaluation experiments
use the faster :class:`repro.lm.ngram.NGramModel` for their bulk workloads,
mirroring the paper's "small vs XL" split with two n-gram capacities, and
use this model in tests and one example.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.lm.base import LanguageModel
from repro.lm.state_cache import DEFAULT_KV_CACHE_BYTES, PrefixStateCache

__all__ = ["TransformerConfig", "TransformerModel"]


@dataclass(frozen=True)
class TransformerConfig:
    """Hyperparameters of the NumPy GPT."""

    vocab_size: int
    block_size: int = 64
    n_layer: int = 2
    n_head: int = 2
    n_embd: int = 32

    def __post_init__(self) -> None:
        if self.n_embd % self.n_head:
            raise ValueError("n_embd must be divisible by n_head")


# --------------------------------------------------------------------------
# functional pieces (forward returns (out, cache); backward consumes cache)
# --------------------------------------------------------------------------

def _layer_norm_forward(
    x: np.ndarray, g: np.ndarray, b: np.ndarray, eps: float = 1e-5
) -> tuple[np.ndarray, tuple]:
    centred = x - x.mean(axis=-1, keepdims=True)
    var = (centred * centred).mean(axis=-1, keepdims=True)
    rstd = 1.0 / np.sqrt(var + eps)
    xhat = centred * rstd
    return g * xhat + b, (xhat, rstd, g)


def _layer_norm_backward(
    dout: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xhat, rstd, g = cache
    dg = (dout * xhat).sum(axis=tuple(range(dout.ndim - 1)))
    db = dout.sum(axis=tuple(range(dout.ndim - 1)))
    dxhat = dout * g
    n = xhat.shape[-1]
    dx = (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    ) * rstd
    return dx, dg, db


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_forward(x: np.ndarray) -> tuple[np.ndarray, tuple]:
    inner = _GELU_C * (x + 0.044715 * (x * x * x))  # x**3 is a libm pow per element
    t = np.tanh(inner)
    return 0.5 * x * (1.0 + t), (x, t)


def _gelu_backward(dout: np.ndarray, cache: tuple) -> np.ndarray:
    x, t = cache
    dinner = _GELU_C * (1.0 + 3 * 0.044715 * x**2)
    return dout * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner)


def _softmax(x: np.ndarray) -> np.ndarray:
    x = x - x.max(axis=-1, keepdims=True)
    e = np.exp(x)
    return e / e.sum(axis=-1, keepdims=True)


class TransformerModel(LanguageModel):
    """Pure-NumPy causal transformer implementing
    :class:`repro.lm.base.LanguageModel`."""

    #: A forward here costs per call, not per context (≈ 0.8 ms of NumPy
    #: dispatch at any batch up to a few dozen rows), so a query that
    #: misses fills its round.  Measured on the ``tf_rank`` workload.
    round_width = 8

    def __init__(
        self,
        config: TransformerConfig,
        eos_id: int,
        seed: int = 0,
        kv_cache_mb: float | None = 64.0,
    ) -> None:
        self.config = config
        self.vocab_size = config.vocab_size
        self.eos_id = eos_id
        self.max_sequence_length = config.block_size
        #: Prefix-state (KV) cache: per-context per-layer K/V arrays so a
        #: child context (parent + one token) is scored with a single-token
        #: incremental attention step instead of a full re-forward.  On by
        #: default (``kv_cache_mb`` MiB budget); pass ``None``/``0`` to
        #: score every context with the full ``_forward``.
        self.prefix_cache: PrefixStateCache | None = None
        if kv_cache_mb:
            self.prefix_cache = PrefixStateCache(int(kv_cache_mb * (1 << 20)))
        rng = np.random.default_rng(seed)
        c = config
        std = 0.02

        def init(*shape: int) -> np.ndarray:
            return rng.normal(0.0, std, size=shape)

        self.params: dict[str, np.ndarray] = {
            "wte": init(c.vocab_size, c.n_embd),
            "wpe": init(c.block_size, c.n_embd),
            "lnf_g": np.ones(c.n_embd),
            "lnf_b": np.zeros(c.n_embd),
        }
        for layer in range(c.n_layer):
            p = f"h{layer}_"
            self.params[p + "ln1_g"] = np.ones(c.n_embd)
            self.params[p + "ln1_b"] = np.zeros(c.n_embd)
            self.params[p + "qkv_w"] = init(c.n_embd, 3 * c.n_embd)
            self.params[p + "qkv_b"] = np.zeros(3 * c.n_embd)
            self.params[p + "proj_w"] = init(c.n_embd, c.n_embd) / math.sqrt(2 * c.n_layer)
            self.params[p + "proj_b"] = np.zeros(c.n_embd)
            self.params[p + "ln2_g"] = np.ones(c.n_embd)
            self.params[p + "ln2_b"] = np.zeros(c.n_embd)
            self.params[p + "fc_w"] = init(c.n_embd, 4 * c.n_embd)
            self.params[p + "fc_b"] = np.zeros(4 * c.n_embd)
            self.params[p + "out_w"] = init(4 * c.n_embd, c.n_embd) / math.sqrt(2 * c.n_layer)
            self.params[p + "out_b"] = np.zeros(c.n_embd)
        self._adam_m: dict[str, np.ndarray] = {}
        self._adam_v: dict[str, np.ndarray] = {}
        self._adam_t = 0

    # -- forward ---------------------------------------------------------------
    def _forward(self, idx: np.ndarray) -> tuple[np.ndarray, list]:
        """Forward pass over a (B, T) batch of token ids.

        Returns (logits, caches) where caches holds every intermediate
        needed by :meth:`_backward`.
        """
        c = self.config
        B, T = idx.shape
        if T > c.block_size:
            raise ValueError(f"sequence length {T} exceeds block size {c.block_size}")
        P = self.params
        x = P["wte"][idx] + P["wpe"][:T]
        caches: dict = {"idx": idx, "layers": []}
        mask = np.triu(np.full((T, T), -np.inf), k=1)
        for layer in range(c.n_layer):
            p = f"h{layer}_"
            ln1, ln1_cache = _layer_norm_forward(x, P[p + "ln1_g"], P[p + "ln1_b"])
            qkv = ln1 @ P[p + "qkv_w"] + P[p + "qkv_b"]
            q, k, v = np.split(qkv, 3, axis=-1)
            H, hd = c.n_head, c.n_embd // c.n_head
            # (B, H, T, hd)
            qh = q.reshape(B, T, H, hd).transpose(0, 2, 1, 3)
            kh = k.reshape(B, T, H, hd).transpose(0, 2, 1, 3)
            vh = v.reshape(B, T, H, hd).transpose(0, 2, 1, 3)
            att = qh @ kh.transpose(0, 1, 3, 2) / math.sqrt(hd) + mask
            attp = _softmax(att)
            ctx = attp @ vh  # (B, H, T, hd)
            ctx_merged = ctx.transpose(0, 2, 1, 3).reshape(B, T, c.n_embd)
            attn_out = ctx_merged @ P[p + "proj_w"] + P[p + "proj_b"]
            x = x + attn_out
            ln2, ln2_cache = _layer_norm_forward(x, P[p + "ln2_g"], P[p + "ln2_b"])
            fc = ln2 @ P[p + "fc_w"] + P[p + "fc_b"]
            act, gelu_cache = _gelu_forward(fc)
            mlp_out = act @ P[p + "out_w"] + P[p + "out_b"]
            x = x + mlp_out
            caches["layers"].append(
                dict(
                    ln1=ln1, ln1_cache=ln1_cache, qh=qh, kh=kh, vh=vh,
                    attp=attp, ctx_merged=ctx_merged, ln2=ln2,
                    ln2_cache=ln2_cache, act=act, gelu_cache=gelu_cache,
                )
            )
        final, lnf_cache = _layer_norm_forward(x, P["lnf_g"], P["lnf_b"])
        caches["lnf_cache"] = lnf_cache
        caches["final"] = final
        logits = final @ P["wte"].T
        return logits, caches

    def _forward_infer(
        self, idx: np.ndarray, kv: np.ndarray, depths: np.ndarray
    ) -> np.ndarray:
        """Inference-only forward over a (B, S) *chunk*, each row continuing
        its own cached prefix of ``depths[b]`` positions.

        ``kv`` is the round's K/V slab ``(n_layer, 2, B, H, m_max + S,
        head_dim)``: row *b*'s cached keys/values sit right-aligned in the
        first ``m_max`` slots (zeros before them), and every layer writes
        the chunk's K/V into the last ``S`` slots in place, so afterwards
        ``kv[:, :, b, :, m_max - depths[b]:]`` is row *b*'s state for all
        ``depths[b] + S`` positions.  Padding slots are masked to ``-inf``
        and hold zeros, so they add exact zeros to the softmax sums: a row
        scores the same alone or beside deeper mates, up to BLAS summation
        shape (last-ulp), and the same as :meth:`_forward`.  Queries are
        never padded, so no softmax row is all ``-inf``.

        Returns the unnormalised logits of the final chunk position.
        """
        c = self.config
        B, S = idx.shape
        T = kv.shape[4]
        m_max = T - S
        if T > c.block_size:
            raise ValueError(f"sequence length {T} exceeds block size {c.block_size}")
        P = self.params
        H, hd = c.n_head, c.n_embd // c.n_head
        x = P["wte"][idx] + P["wpe"][depths[:, None] + np.arange(S)]
        # Chunk row i of batch row b (absolute position depths[b] + i) may
        # attend to b's cached slots plus the chunk's causal part.
        mask: np.ndarray | None = None
        if S > 1:
            mask = np.zeros((S, T))
            mask[:, m_max:] = np.triu(np.full((S, S), -np.inf), k=1)
        if (depths < m_max).any():
            padded = np.arange(T) < (m_max - depths)[:, None]
            pad = np.where(padded, -np.inf, 0.0)[:, None, None, :]
            mask = pad if mask is None else mask + pad
        for layer in range(c.n_layer):
            p = f"h{layer}_"
            ln1, _ = _layer_norm_forward(x, P[p + "ln1_g"], P[p + "ln1_b"])
            qkv = ln1 @ P[p + "qkv_w"] + P[p + "qkv_b"]
            # (3, B, H, S, hd): q, then the chunk's k and v.
            qkv = qkv.reshape(B, S, 3, H, hd).transpose(2, 0, 3, 1, 4)
            kv[layer, :, :, :, m_max:] = qkv[1:]
            att = qkv[0] @ kv[layer, 0].transpose(0, 1, 3, 2) / math.sqrt(hd)
            if mask is not None:
                att += mask
            ctx = (_softmax(att) @ kv[layer, 1]).transpose(0, 2, 1, 3)
            x = x + ctx.reshape(B, S, c.n_embd) @ P[p + "proj_w"] + P[p + "proj_b"]
            ln2, _ = _layer_norm_forward(x, P[p + "ln2_g"], P[p + "ln2_b"])
            act, _ = _gelu_forward(ln2 @ P[p + "fc_w"] + P[p + "fc_b"])
            x = x + act @ P[p + "out_w"] + P[p + "out_b"]
        final, _ = _layer_norm_forward(x[:, -1], P["lnf_g"], P["lnf_b"])
        return final @ P["wte"].T

    def _backward(self, dlogits: np.ndarray, caches: dict) -> dict[str, np.ndarray]:
        """Backprop from d(loss)/d(logits); returns gradients per
        parameter."""
        c = self.config
        P = self.params
        grads = {name: np.zeros_like(value) for name, value in P.items()}
        final = caches["final"]
        B, T, _ = final.shape
        grads["wte"] += dlogits.reshape(B * T, -1).T @ final.reshape(B * T, -1)
        dfinal = dlogits @ P["wte"]
        dx, dg, db = _layer_norm_backward(dfinal, caches["lnf_cache"])
        grads["lnf_g"] += dg
        grads["lnf_b"] += db
        H, hd = c.n_head, c.n_embd // c.n_head
        for layer in reversed(range(c.n_layer)):
            p = f"h{layer}_"
            cache = caches["layers"][layer]
            # MLP branch
            dmlp_out = dx
            grads[p + "out_w"] += cache["act"].reshape(B * T, -1).T @ dmlp_out.reshape(B * T, -1)
            grads[p + "out_b"] += dmlp_out.sum(axis=(0, 1))
            dact = dmlp_out @ P[p + "out_w"].T
            dfc = _gelu_backward(dact, cache["gelu_cache"])
            grads[p + "fc_w"] += cache["ln2"].reshape(B * T, -1).T @ dfc.reshape(B * T, -1)
            grads[p + "fc_b"] += dfc.sum(axis=(0, 1))
            dln2 = dfc @ P[p + "fc_w"].T
            dx2, dg, db = _layer_norm_backward(dln2, cache["ln2_cache"])
            grads[p + "ln2_g"] += dg
            grads[p + "ln2_b"] += db
            dx = dx + dx2
            # Attention branch
            dattn_out = dx
            ctx_flat = cache["ctx_merged"].reshape(B * T, -1)
            grads[p + "proj_w"] += ctx_flat.T @ dattn_out.reshape(B * T, -1)
            grads[p + "proj_b"] += dattn_out.sum(axis=(0, 1))
            dctx_merged = dattn_out @ P[p + "proj_w"].T
            dctx = dctx_merged.reshape(B, T, H, hd).transpose(0, 2, 1, 3)
            attp, qh, kh, vh = cache["attp"], cache["qh"], cache["kh"], cache["vh"]
            dattp = dctx @ vh.transpose(0, 1, 3, 2)
            dvh = attp.transpose(0, 1, 3, 2) @ dctx
            datt = attp * (dattp - (dattp * attp).sum(axis=-1, keepdims=True))
            datt /= math.sqrt(hd)
            dqh = datt @ kh
            dkh = datt.transpose(0, 1, 3, 2) @ qh
            dq = dqh.transpose(0, 2, 1, 3).reshape(B, T, c.n_embd)
            dk = dkh.transpose(0, 2, 1, 3).reshape(B, T, c.n_embd)
            dv = dvh.transpose(0, 2, 1, 3).reshape(B, T, c.n_embd)
            dqkv = np.concatenate([dq, dk, dv], axis=-1)
            grads[p + "qkv_w"] += cache["ln1"].reshape(B * T, -1).T @ dqkv.reshape(B * T, -1)
            grads[p + "qkv_b"] += dqkv.sum(axis=(0, 1))
            dln1 = dqkv @ P[p + "qkv_w"].T
            dx1, dg, db = _layer_norm_backward(dln1, cache["ln1_cache"])
            grads[p + "ln1_g"] += dg
            grads[p + "ln1_b"] += db
            dx = dx + dx1
        idx = caches["idx"]
        np.add.at(grads["wte"], idx, dx)
        grads["wpe"][:T] += dx.sum(axis=0)
        return grads

    # -- training ------------------------------------------------------------
    def loss_and_grads(
        self, idx: np.ndarray, targets: np.ndarray
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Cross-entropy loss over a batch and its parameter gradients."""
        logits, caches = self._forward(idx)
        B, T, V = logits.shape
        probs = _softmax(logits)
        flat = probs.reshape(B * T, V)
        tgt = targets.reshape(B * T)
        valid = tgt >= 0  # -1 marks padding/ignored positions
        n_valid = max(int(valid.sum()), 1)
        picked = flat[np.arange(B * T), np.where(valid, tgt, 0)]
        loss = -np.log(np.clip(picked[valid], 1e-12, None)).mean()
        dlogits = flat.copy()
        dlogits[np.arange(B * T), np.where(valid, tgt, 0)] -= 1.0
        dlogits[~valid] = 0.0
        dlogits = (dlogits / n_valid).reshape(B, T, V)
        return loss, self._backward(dlogits, caches)

    def adam_step(self, grads: dict[str, np.ndarray], lr: float = 1e-2,
                  betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8) -> None:
        """One Adam update over all parameters."""
        self._adam_t += 1
        b1, b2 = betas
        t = self._adam_t
        for name, grad in grads.items():
            m = self._adam_m.setdefault(name, np.zeros_like(grad))
            v = self._adam_v.setdefault(name, np.zeros_like(grad))
            m += (1 - b1) * (grad - m)
            v += (1 - b2) * (grad**2 - v)
            mhat = m / (1 - b1**t)
            vhat = v / (1 - b2**t)
            self.params[name] -= lr * mhat / (np.sqrt(vhat) + eps)
        # Cached K/V states were computed under the old weights.
        if self.prefix_cache is not None:
            self.prefix_cache.clear()

    def fit(
        self,
        sequences: Iterable[Sequence[int]],
        steps: int = 200,
        batch_size: int = 16,
        lr: float = 1e-2,
        seed: int = 0,
        append_eos: bool = True,
        verbose: bool = False,
    ) -> list[float]:
        """Train on next-token prediction over *sequences*; returns the loss
        curve.

        Sequences are concatenated (EOS-separated) and sliced into
        block-size windows, GPT-style.
        """
        stream: list[int] = []
        for seq in sequences:
            stream.extend(seq)
            if append_eos:
                stream.append(self.eos_id)
        if len(stream) < self.config.block_size + 1:
            raise ValueError("not enough training tokens for one block")
        data = np.asarray(stream, dtype=np.int64)
        rng = np.random.default_rng(seed)
        T = self.config.block_size
        losses: list[float] = []
        for step in range(steps):
            starts = rng.integers(0, len(data) - T - 1, size=batch_size)
            idx = np.stack([data[s : s + T] for s in starts])
            tgt = np.stack([data[s + 1 : s + T + 1] for s in starts])
            loss, grads = self.loss_and_grads(idx, tgt)
            self.adam_step(grads, lr=lr)
            losses.append(float(loss))
            if verbose and step % 50 == 0:
                print(f"step {step}: loss {loss:.4f}")
        return losses

    # -- process transport -------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle weights + config only.

        Optimiser moments are training-only state, and the prefix-state
        (KV) cache holds derived arrays a replica can regrow — both are
        dropped so :meth:`~repro.lm.base.LanguageModel.spec` payloads stay
        lean.  The KV *budget* is preserved so worker replicas (see
        :mod:`repro.core.parallel`) rebuild an empty cache of the same
        size.
        """
        state = self.__dict__.copy()
        state["_adam_m"] = {}
        state["_adam_v"] = {}
        state["_adam_t"] = 0
        cache = state.pop("prefix_cache")
        state["_pickled_kv_bytes"] = cache.max_bytes if cache is not None else None
        return state

    def __setstate__(self, state: dict) -> None:
        kv_bytes = state.pop("_pickled_kv_bytes", None)
        self.__dict__.update(state)
        self.prefix_cache = PrefixStateCache(kv_bytes) if kv_bytes else None

    # -- prefix-state (KV) cache -------------------------------------------------
    def enable_prefix_cache(self, max_bytes: int | None = None) -> PrefixStateCache:
        """Attach (or resize) the prefix-state cache; returns it."""
        if max_bytes is None:
            max_bytes = DEFAULT_KV_CACHE_BYTES
        if self.prefix_cache is None or self.prefix_cache.max_bytes != max_bytes:
            self.prefix_cache = PrefixStateCache(max_bytes)
        return self.prefix_cache

    # -- LanguageModel interface ------------------------------------------------
    def _clip_context(self, context: Sequence[int]) -> list[int]:
        ctx = list(context)[-(self.config.block_size - 1) :]
        return ctx if ctx else [self.eos_id]  # EOS anchors begin-of-text

    def logprobs(self, context: Sequence[int]) -> np.ndarray:
        """``log p(next | context)`` using the last ``block_size - 1``
        context tokens (a one-context :meth:`logprobs_batch` round when
        the prefix cache is attached)."""
        if self.prefix_cache is not None:
            return self.logprobs_batch([context])[0]
        idx = np.asarray([self._clip_context(context)], dtype=np.int64)
        logits, _ = self._forward(idx)
        last = logits[0, -1]
        last = last - last.max()
        return last - math.log(np.exp(last).sum())

    def logprobs_batch(self, contexts: Sequence[Sequence[int]]) -> list[np.ndarray]:
        """True batched forward — the GPU-style batching the ReLM executor
        exploits (§3.3).

        Without the prefix cache, contexts are grouped by length and each
        group runs as one (B, T) full forward.  With it, each distinct
        context continues from its deepest cached proper prefix, and the
        round runs in *waves*: the rows with the smallest uncached chunk
        ``S`` share one :meth:`_forward_infer` over a depth-padded K/V
        slab, their states are stored, and the rest look again.  A
        traversal frontier (every context = a parent scored earlier + one
        token, at any mix of depths) is one wave with ``S = 1``; a chain
        of prefixes within one call (the prefix fast-forward) resolves
        shortest-first, each wave feeding the next.
        """
        clipped = [self._clip_context(c) for c in contexts]
        cache = self.prefix_cache
        if cache is None:
            out: list[np.ndarray | None] = [None] * len(clipped)
            by_length: dict[int, list[int]] = {}
            for i, ctx in enumerate(clipped):
                by_length.setdefault(len(ctx), []).append(i)
            for length, indices in by_length.items():
                idx = np.asarray([clipped[i] for i in indices], dtype=np.int64)
                logits, _ = self._forward(idx)
                last = logits[:, -1, :]
                last = last - last.max(axis=-1, keepdims=True)
                last = last - np.log(np.exp(last).sum(axis=-1, keepdims=True))
                for row, i in enumerate(indices):
                    out[i] = last[row]
            return out  # type: ignore[return-value]
        c = self.config
        keys = [tuple(ctx) for ctx in clipped]
        rows: dict[tuple[int, ...], np.ndarray] = {}
        pending = list(dict.fromkeys(keys))  # each distinct context scored once
        while pending:
            # Scoring always processes at least the final token, so only
            # proper prefixes are usable ancestors.  peek() plans the wave;
            # longest_prefix() charges each row once, as it joins.
            chunks = [len(key) - cache.peek(key, len(key) - 1) for key in pending]
            S = min(chunks)
            wave = [key for key, chunk in zip(pending, chunks) if chunk == S]
            pending = [key for key, chunk in zip(pending, chunks) if chunk != S]
            states = [cache.longest_prefix(key, len(key) - 1)[1] for key in wave]
            depths = np.asarray([len(key) - S for key in wave])
            m_max = int(depths.max())
            kv = np.zeros(
                (c.n_layer, 2, len(wave), c.n_head, m_max + S, c.n_embd // c.n_head)
            )
            for b, state in enumerate(states):
                if state is not None:
                    kv[:, :, b, :, m_max - depths[b] : m_max] = state
            idx = np.asarray([key[len(key) - S :] for key in wave], dtype=np.int64)
            logits = self._forward_infer(idx, kv, depths)
            last = logits - logits.max(axis=-1, keepdims=True)
            last = last - np.log(np.exp(last).sum(axis=-1, keepdims=True))
            for b, key in enumerate(wave):
                # One contiguous (n_layer, 2, H, len(key), hd) copy, so a
                # cached sequence never pins the whole round's slab.
                state = kv[:, :, b, :, m_max - depths[b] :].copy()
                cache.put(key, state, state.nbytes)
                rows[key] = last[b]
        return [rows[key] for key in keys]
