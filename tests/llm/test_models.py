"""Tests for the LLM architectural configurations."""

from dataclasses import replace

import pytest

from repro.llm.models import (
    DEEPSEEK_V3,
    GROK_1,
    LLAMA_3_405B,
    AttentionKind,
    FfnKind,
    MODELS,
    model_by_name,
)


def test_model_registry_contains_the_three_evaluated_models():
    assert set(MODELS) == {"deepseek-v3", "grok-1", "llama-3-405b"}


def test_model_lookup_by_key_and_display_name():
    assert model_by_name("deepseek-v3") is DEEPSEEK_V3
    assert model_by_name("Llama 3") is LLAMA_3_405B
    with pytest.raises(KeyError):
        model_by_name("gpt-5")


def test_total_parameters_match_published_sizes():
    assert DEEPSEEK_V3.total_parameters() == pytest.approx(671e9, rel=0.03)
    assert GROK_1.total_parameters() == pytest.approx(314e9, rel=0.03)
    assert LLAMA_3_405B.total_parameters() == pytest.approx(405e9, rel=0.03)


def test_attention_kinds_match_the_paper():
    assert DEEPSEEK_V3.attention.kind is AttentionKind.MLA
    assert GROK_1.attention.kind is AttentionKind.GQA
    assert LLAMA_3_405B.attention.kind is AttentionKind.GQA


def test_ffn_kinds_and_expert_configuration():
    assert DEEPSEEK_V3.ffn.kind is FfnKind.MOE
    assert DEEPSEEK_V3.ffn.num_experts == 256 and DEEPSEEK_V3.ffn.top_k == 8
    assert GROK_1.ffn.num_experts == 8 and GROK_1.ffn.top_k == 2
    assert LLAMA_3_405B.ffn.kind is FfnKind.DENSE


def test_ffn_intermediate_dimensions_match_section_vi():
    assert DEEPSEEK_V3.ffn.moe_intermediate_size == 2048
    assert GROK_1.ffn.intermediate_size == 32768
    assert LLAMA_3_405B.ffn.intermediate_size == 53248


def test_mla_kv_cache_is_much_smaller_than_gqa():
    mla = DEEPSEEK_V3.attention.kv_bytes_per_token_per_layer()
    gqa = GROK_1.attention.kv_bytes_per_token_per_layer()
    assert mla == (512 + 64) * 2
    assert gqa == 2 * 8 * 128 * 2
    assert mla < gqa / 3


def test_grok_weight_matrices_are_all_multi_megabyte_except_the_router():
    """Figure 1 / Section III: all of Grok 1's weight matrices exceed 12 MB
    except one exceptionally small one (the MoE router gate)."""
    matrices = GROK_1.attention.weight_matrices(GROK_1.hidden_size)
    assert min(size for _, size in matrices) >= 12 * (1 << 20)
    assert GROK_1.ffn.expert_weight_bytes(GROK_1.hidden_size) / 3 >= 12 * (1 << 20)
    router = GROK_1.ffn.router_weight_bytes(GROK_1.hidden_size)
    assert 0 < router < 128 * 1024


def test_moe_layer_classification_with_leading_dense_layers():
    assert not DEEPSEEK_V3.ffn.is_moe_layer(0)
    assert not DEEPSEEK_V3.ffn.is_moe_layer(2)
    assert DEEPSEEK_V3.ffn.is_moe_layer(3)
    assert DEEPSEEK_V3.moe_layer_count() == 58
    assert GROK_1.moe_layer_count() == 64
    assert LLAMA_3_405B.moe_layer_count() == 0


@pytest.mark.parametrize("first_dense_layers", [0, 1, 3, 4, 5, 9])
def test_moe_layer_count_matches_the_per_layer_classification(
        first_dense_layers):
    """More leading dense layers than layers leaves zero MoE layers."""
    model = replace(DEEPSEEK_V3, num_layers=4, ffn=replace(
        DEEPSEEK_V3.ffn, first_dense_layers=first_dense_layers))
    assert model.moe_layer_count() == sum(
        model.ffn.is_moe_layer(layer) for layer in range(model.num_layers))


def test_expected_active_experts_monotone_and_bounded():
    values = [DEEPSEEK_V3.expected_active_experts(tokens)
              for tokens in (1, 8, 64, 512, 4096)]
    assert values == sorted(values)
    assert values[0] == pytest.approx(8, rel=1e-6)
    assert values[-1] <= DEEPSEEK_V3.ffn.num_experts
    assert DEEPSEEK_V3.expected_active_experts(0) == 0.0
    assert LLAMA_3_405B.expected_active_experts(128) == 0.0


def test_kv_bytes_per_sequence_scales_linearly():
    per_token = LLAMA_3_405B.kv_bytes_per_token()
    assert LLAMA_3_405B.kv_bytes_per_sequence(100) == 100 * per_token


def test_summary_reports_key_quantities():
    summary = GROK_1.summary()
    assert summary["layers"] == 64
    assert summary["parameters_billion"] == pytest.approx(316, rel=0.02)
