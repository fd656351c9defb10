"""Tests for the continuous-batching serving model (:mod:`repro.workloads.serving`)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.llm.models import (
    DEEPSEEK_V3,
    GROK_1,
    LLAMA_3_405B,
    MODELS,
    FfnConfig,
    FfnKind,
    ModelConfig,
)
from repro.workloads.serving import (
    DecodeServingModel,
    ServingConfig,
    active_decode_weight_bytes,
    prefill_weight_bytes,
)


def _config(**overrides):
    defaults = dict(model_name="grok-1", batch_capacity=2, prompt_tokens=64,
                    output_tokens=2, iteration_interval_ns=1000,
                    traffic_scale=2.0 ** -24)
    defaults.update(overrides)
    return ServingConfig(**defaults)


class TestWeightComposition:
    def test_dense_model_reads_everything_regardless_of_batch(self):
        small = active_decode_weight_bytes(LLAMA_3_405B, tokens=1)
        large = active_decode_weight_bytes(LLAMA_3_405B, tokens=64)
        assert small == large  # dense FFN: no routing

    def test_moe_model_reads_more_experts_with_more_tokens(self):
        small = active_decode_weight_bytes(DEEPSEEK_V3, tokens=1)
        large = active_decode_weight_bytes(DEEPSEEK_V3, tokens=64)
        assert large > small

    def test_active_weights_below_total_weights(self):
        for model in (DEEPSEEK_V3, GROK_1):
            active = active_decode_weight_bytes(model, tokens=4)
            assert active < model.total_weight_bytes()

    def test_prefill_approaches_full_expert_sweep(self):
        decode = active_decode_weight_bytes(DEEPSEEK_V3, tokens=4)
        prefill = prefill_weight_bytes(DEEPSEEK_V3, prompt_tokens=2048)
        assert prefill > 2 * decode


def _per_layer_weight_bytes(model, tokens):
    """Reference: the per-layer walk the closed form replaced."""
    tokens = max(1, tokens)
    total = model.lm_head_weight_bytes()
    hidden, dtype = model.hidden_size, model.dtype_bytes
    for layer in range(model.num_layers):
        total += model.attention_weight_bytes_per_layer()
        ffn = model.ffn
        if ffn.is_moe_layer(layer):
            active = model.expected_active_experts(tokens)
            expert = ffn.expert_weight_bytes(hidden, dtype)
            total += int(active * expert)
            total += ffn.shared_expert_weight_bytes(hidden, dtype)
            total += ffn.router_weight_bytes(hidden, dtype)
        else:
            total += ffn.dense_weight_bytes(hidden, dtype)
    return total


@st.composite
def _synthetic_models(draw):
    num_layers = draw(st.integers(1, 130))
    if draw(st.booleans()):
        num_experts = draw(st.integers(1, 512))
        ffn = FfnConfig(
            kind=FfnKind.MOE,
            intermediate_size=draw(st.integers(1, 65536)),
            num_experts=num_experts,
            top_k=draw(st.integers(1, num_experts)),
            num_shared_experts=draw(st.integers(0, 4)),
            moe_intermediate_size=draw(st.integers(1, 65536)),
            first_dense_layers=draw(st.integers(0, num_layers + 2)))
    else:
        ffn = FfnConfig(kind=FfnKind.DENSE,
                        intermediate_size=draw(st.integers(1, 65536)))
    base = draw(st.sampled_from(sorted(MODELS.values(),
                                       key=lambda model: model.name)))
    return ModelConfig(name="synthetic", num_layers=num_layers,
                       hidden_size=draw(st.integers(1, 16384)),
                       vocab_size=draw(st.integers(1, 262144)),
                       attention=base.attention, ffn=ffn,
                       dtype_bytes=draw(st.sampled_from((1, 2, 4))))


class TestWeightClosedForm:
    @settings(max_examples=200, deadline=None)
    @given(model=st.one_of(st.sampled_from(sorted(
               MODELS.values(), key=lambda model: model.name)),
               _synthetic_models()),
           tokens=st.integers(-2, 4096))
    def test_equals_the_per_layer_walk(self, model, tokens):
        expected = _per_layer_weight_bytes(model, tokens)
        assert active_decode_weight_bytes(model, tokens) == expected
        assert prefill_weight_bytes(model, tokens) == expected


class TestServingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            _config(batch_capacity=0)
        with pytest.raises(ValueError):
            _config(output_tokens=0)
        with pytest.raises(ValueError):
            _config(traffic_scale=0.0)
        with pytest.raises(ValueError):
            _config(iteration_interval_ns=0)


class TestCompile:
    def test_single_request_episode(self):
        model = DecodeServingModel(_config(output_tokens=3))
        schedule = model.compile([100])
        tags = [transfer.tag for _, transfer in schedule]
        # One prefill burst at admission, then one decode per output token.
        assert tags == ["prefill", "decode", "decode", "decode"]
        assert schedule.times_ns()[0] == 100
        assert schedule.times_ns()[1] == 100  # decode shares the boundary
        assert schedule.times_ns()[-1] == 100 + 2 * 1000

    def test_batching_shares_iterations(self):
        model = DecodeServingModel(_config(batch_capacity=4, output_tokens=2))
        together = model.compile([0, 0, 0, 0])
        alone = model.compile([0])
        # Four simultaneous requests share every decode iteration, so the
        # schedule has the same iteration count as a single request.
        assert len(together) == len(alone)
        decode_bytes = [t.total_bytes for _, t in together if t.tag == "decode"]
        solo_bytes = [t.total_bytes for _, t in alone if t.tag == "decode"]
        assert decode_bytes[0] > solo_bytes[0]  # more KV per iteration

    def test_capacity_defers_admission(self):
        model = DecodeServingModel(_config(batch_capacity=1, output_tokens=2))
        schedule = model.compile([0, 0])
        prefills = [time for time, t in schedule if t.tag == "prefill"]
        # The second request waits for the first to depart (2 iterations).
        assert prefills == [0, 2 * 1000]

    def test_batch_drain_jumps_to_next_arrival(self):
        model = DecodeServingModel(_config(output_tokens=1))
        schedule = model.compile([0, 500_000])
        times = schedule.times_ns()
        assert times[0] == 0 and times[-1] == 500_000

    def test_compile_is_deterministic(self):
        model = DecodeServingModel(_config())
        arrivals = [0, 100, 2500, 2500, 9000]
        assert model.compile(arrivals) == model.compile(arrivals)

    def test_min_transfer_floor_applies(self):
        config = _config(traffic_scale=2.0 ** -40)  # scales everything to ~0
        schedule = DecodeServingModel(config).compile([0])
        for _, transfer in schedule:
            assert transfer.read_bytes >= config.min_transfer_bytes
