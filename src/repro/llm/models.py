"""Architectural configurations of the evaluated LLMs.

Only the tensor shapes matter for memory-traffic reproduction (Section III and
Figure 1); the configurations below follow the public model cards of
DeepSeek-V3, Grok 1, and Llama 3-405B:

* DeepSeek-V3: multi-head latent attention (MLA) and a 256-expert top-8
  mixture-of-experts FFN with one shared expert; the first three layers use a
  dense FFN.
* Grok 1: grouped-query attention (GQA) and an 8-expert top-2 MoE.
* Llama 3-405B: GQA with a dense FFN.

All weights are BF16 (2 bytes per element), as in the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Tuple


class AttentionKind(enum.Enum):
    MHA = "mha"
    GQA = "gqa"
    MLA = "mla"


class FfnKind(enum.Enum):
    DENSE = "dense"
    MOE = "moe"


@dataclass(frozen=True)
class AttentionConfig:
    """Attention-layer shape parameters."""

    kind: AttentionKind
    num_heads: int
    head_dim: int
    num_kv_heads: int = 0
    # MLA-specific dimensions (DeepSeek-V3).
    q_lora_rank: int = 0
    kv_lora_rank: int = 0
    qk_rope_head_dim: int = 0
    qk_nope_head_dim: int = 0
    v_head_dim: int = 0

    def weight_bytes_per_layer(self, hidden_size: int, dtype_bytes: int = 2) -> int:
        """Total attention projection weights of one decoder layer."""
        h = hidden_size
        if self.kind is AttentionKind.MLA:
            q_head_dim = self.qk_nope_head_dim + self.qk_rope_head_dim
            params = (
                h * self.q_lora_rank
                + self.q_lora_rank * self.num_heads * q_head_dim
                + h * (self.kv_lora_rank + self.qk_rope_head_dim)
                + self.kv_lora_rank
                * self.num_heads
                * (self.qk_nope_head_dim + self.v_head_dim)
                + self.num_heads * self.v_head_dim * h
            )
        else:
            q_dim = self.num_heads * self.head_dim
            kv_dim = self.num_kv_heads * self.head_dim
            params = h * q_dim + 2 * h * kv_dim + q_dim * h
        return params * dtype_bytes

    def kv_bytes_per_token_per_layer(self, dtype_bytes: int = 2) -> int:
        """KV-cache bytes stored per token per layer."""
        if self.kind is AttentionKind.MLA:
            # MLA caches the compressed latent plus the decoupled RoPE key.
            return (self.kv_lora_rank + self.qk_rope_head_dim) * dtype_bytes
        return 2 * self.num_kv_heads * self.head_dim * dtype_bytes

    def weight_matrices(self, hidden_size: int, dtype_bytes: int = 2) -> List[Tuple[str, int]]:
        """Named attention weight tensors of one layer (for Figure 1)."""
        h = hidden_size
        if self.kind is AttentionKind.MLA:
            q_head_dim = self.qk_nope_head_dim + self.qk_rope_head_dim
            return [
                ("q_a_proj", h * self.q_lora_rank * dtype_bytes),
                ("q_b_proj", self.q_lora_rank * self.num_heads * q_head_dim * dtype_bytes),
                ("kv_a_proj", h * (self.kv_lora_rank + self.qk_rope_head_dim) * dtype_bytes),
                (
                    "kv_b_proj",
                    self.kv_lora_rank
                    * self.num_heads
                    * (self.qk_nope_head_dim + self.v_head_dim)
                    * dtype_bytes,
                ),
                ("o_proj", self.num_heads * self.v_head_dim * h * dtype_bytes),
            ]
        q_dim = self.num_heads * self.head_dim
        kv_dim = self.num_kv_heads * self.head_dim
        return [
            ("q_proj", h * q_dim * dtype_bytes),
            ("k_proj", h * kv_dim * dtype_bytes),
            ("v_proj", h * kv_dim * dtype_bytes),
            ("o_proj", q_dim * h * dtype_bytes),
        ]


@dataclass(frozen=True)
class FfnConfig:
    """Feed-forward network shape parameters (dense or MoE)."""

    kind: FfnKind
    intermediate_size: int
    num_experts: int = 0
    top_k: int = 0
    num_shared_experts: int = 0
    moe_intermediate_size: int = 0
    #: Leading decoder layers that use the dense FFN even in an MoE model.
    first_dense_layers: int = 0

    def dense_weight_bytes(self, hidden_size: int, dtype_bytes: int = 2) -> int:
        """Gate + up + down projection weights for a dense FFN layer."""
        return 3 * hidden_size * self.intermediate_size * dtype_bytes

    def expert_weight_bytes(self, hidden_size: int, dtype_bytes: int = 2) -> int:
        """Gate + up + down projection weights of a single routed expert."""
        if self.kind is not FfnKind.MOE:
            return 0
        return 3 * hidden_size * self.moe_intermediate_size * dtype_bytes

    def shared_expert_weight_bytes(self, hidden_size: int, dtype_bytes: int = 2) -> int:
        return self.num_shared_experts * self.expert_weight_bytes(hidden_size, dtype_bytes)

    def router_weight_bytes(self, hidden_size: int, dtype_bytes: int = 2) -> int:
        if self.kind is not FfnKind.MOE:
            return 0
        return hidden_size * self.num_experts * dtype_bytes

    def is_moe_layer(self, layer_index: int) -> bool:
        return self.kind is FfnKind.MOE and layer_index >= self.first_dense_layers

    def moe_weight_bytes_per_layer(self, hidden_size: int, dtype_bytes: int = 2) -> int:
        """All expert weights of one MoE layer (stored, not necessarily read)."""
        return (
            self.num_experts * self.expert_weight_bytes(hidden_size, dtype_bytes)
            + self.shared_expert_weight_bytes(hidden_size, dtype_bytes)
            + self.router_weight_bytes(hidden_size, dtype_bytes)
        )


@dataclass(frozen=True)
class ModelConfig:
    """A transformer decoder LLM as characterized in Section III."""

    name: str
    num_layers: int
    hidden_size: int
    vocab_size: int
    attention: AttentionConfig
    ffn: FfnConfig
    dtype_bytes: int = 2
    max_sequence_length: int = 131072

    # ------------------------------------------------------------- weights

    def embedding_weight_bytes(self) -> int:
        return self.vocab_size * self.hidden_size * self.dtype_bytes

    def lm_head_weight_bytes(self) -> int:
        return self.vocab_size * self.hidden_size * self.dtype_bytes

    def attention_weight_bytes_per_layer(self) -> int:
        return self.attention.weight_bytes_per_layer(self.hidden_size, self.dtype_bytes)

    def ffn_weight_bytes_per_layer(self, layer_index: int) -> int:
        if self.ffn.is_moe_layer(layer_index):
            return self.ffn.moe_weight_bytes_per_layer(self.hidden_size, self.dtype_bytes)
        return self.ffn.dense_weight_bytes(self.hidden_size, self.dtype_bytes)

    def total_weight_bytes(self) -> int:
        total = self.embedding_weight_bytes() + self.lm_head_weight_bytes()
        for layer in range(self.num_layers):
            total += self.attention_weight_bytes_per_layer()
            total += self.ffn_weight_bytes_per_layer(layer)
        return total

    def total_parameters(self) -> int:
        return self.total_weight_bytes() // self.dtype_bytes

    # ------------------------------------------------------------ KV cache

    def kv_bytes_per_token(self) -> int:
        """KV-cache bytes per token across all layers."""
        return (
            self.attention.kv_bytes_per_token_per_layer(self.dtype_bytes)
            * self.num_layers
        )

    def kv_bytes_per_sequence(self, sequence_length: int) -> int:
        return self.kv_bytes_per_token() * sequence_length

    # ------------------------------------------------------------ MoE stats

    def moe_layer_count(self) -> int:
        """Layers that :meth:`FfnConfig.is_moe_layer` calls MoE."""
        if self.ffn.kind is not FfnKind.MOE:
            return 0
        return max(0, self.num_layers - max(0, self.ffn.first_dense_layers))

    def expected_active_experts(self, tokens: int) -> float:
        """Expected number of distinct routed experts hit by ``tokens`` tokens.

        Routing is modelled as uniform and independent: with ``E`` experts and
        top-``k`` routing, the probability an expert is untouched by one token
        is ``1 - k/E``, so the expectation over ``tokens`` tokens is
        ``E * (1 - (1 - k/E) ** tokens)``.
        """
        if self.ffn.kind is not FfnKind.MOE or tokens <= 0:
            return 0.0
        experts = self.ffn.num_experts
        prob_miss = (1.0 - self.ffn.top_k / experts) ** tokens
        return experts * (1.0 - prob_miss)

    def summary(self) -> Dict[str, float]:
        return {
            "layers": self.num_layers,
            "hidden": self.hidden_size,
            "parameters_billion": self.total_parameters() / 1e9,
            "weights_gib": self.total_weight_bytes() / (1 << 30),
            "kv_bytes_per_token": self.kv_bytes_per_token(),
        }


DEEPSEEK_V3 = ModelConfig(
    name="DeepSeek-V3",
    num_layers=61,
    hidden_size=7168,
    vocab_size=129280,
    attention=AttentionConfig(
        kind=AttentionKind.MLA,
        num_heads=128,
        head_dim=128,
        q_lora_rank=1536,
        kv_lora_rank=512,
        qk_rope_head_dim=64,
        qk_nope_head_dim=128,
        v_head_dim=128,
    ),
    ffn=FfnConfig(
        kind=FfnKind.MOE,
        intermediate_size=18432,
        num_experts=256,
        top_k=8,
        num_shared_experts=1,
        moe_intermediate_size=2048,
        first_dense_layers=3,
    ),
)

GROK_1 = ModelConfig(
    name="Grok 1",
    num_layers=64,
    hidden_size=6144,
    vocab_size=131072,
    attention=AttentionConfig(
        kind=AttentionKind.GQA,
        num_heads=48,
        head_dim=128,
        num_kv_heads=8,
    ),
    ffn=FfnConfig(
        kind=FfnKind.MOE,
        intermediate_size=32768,
        num_experts=8,
        top_k=2,
        num_shared_experts=0,
        moe_intermediate_size=32768,
        first_dense_layers=0,
    ),
)

LLAMA_3_405B = ModelConfig(
    name="Llama 3",
    num_layers=126,
    hidden_size=16384,
    vocab_size=128256,
    attention=AttentionConfig(
        kind=AttentionKind.GQA,
        num_heads=128,
        head_dim=128,
        num_kv_heads=8,
    ),
    ffn=FfnConfig(
        kind=FfnKind.DENSE,
        intermediate_size=53248,
    ),
)

#: Models by name, in the order the paper's figures use.
MODELS: Dict[str, ModelConfig] = {
    "deepseek-v3": DEEPSEEK_V3,
    "grok-1": GROK_1,
    "llama-3-405b": LLAMA_3_405B,
}


def model_by_name(name: str) -> ModelConfig:
    """Look a model up by its key or display name (case-insensitive)."""
    key = name.lower().strip()
    if key in MODELS:
        return MODELS[key]
    for model in MODELS.values():
        if model.name.lower() == key:
            return model
    raise KeyError(f"unknown model {name!r}; known: {sorted(MODELS)}")
