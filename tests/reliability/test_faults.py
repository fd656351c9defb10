"""The counter-based device-fault model: determinism, stickiness, scaling.

Every draw must be a pure function of ``(seed, kind, address, time)`` --
no mutable RNG state -- because that is what makes fault campaigns
bit-identical across workers, start methods, and checkpoint cuts.
"""

import hashlib
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.reliability.faults import (
    DeviceFaultModel,
    FaultDraw,
    ReliabilityConfig,
)
from repro.reliability.taxonomy import DeviceFaultKind

BANK = (0, 0, 0, 0)
BITS = 4096 * 8


def _model(**overrides):
    defaults = dict(seed=5, transient_ber=1e-5, retention_ber=1e-5,
                    hard_row_rate=0.05)
    defaults.update(overrides)
    return DeviceFaultModel(ReliabilityConfig(**defaults))


class TestConfig:
    @pytest.mark.parametrize("field", ["transient_ber", "retention_ber",
                                       "hard_row_rate", "hard_bank_rate"])
    def test_rates_must_be_probabilities(self, field):
        with pytest.raises(ValueError, match="within"):
            ReliabilityConfig(**{field: 1.5})

    def test_unknown_ecc_scheme_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown ECC scheme"):
            ReliabilityConfig(ecc_scheme="parity8")

    def test_active_only_with_a_nonzero_rate(self):
        assert not ReliabilityConfig().active
        assert not ReliabilityConfig(seed=9, scrub_interval_ns=100).active
        assert ReliabilityConfig(transient_ber=1e-9).active
        assert ReliabilityConfig(hard_bank_rate=1e-9).active

    def test_config_is_frozen_and_picklable(self):
        config = ReliabilityConfig(seed=3, transient_ber=1e-6)
        assert pickle.loads(pickle.dumps(config)) == config
        with pytest.raises(Exception):
            config.seed = 4


class TestDeterminism:
    def test_equal_keys_give_equal_draws(self):
        a, b = _model(), _model()
        for row in range(64):
            assert a.draw(BANK, row, 1000, 500, BITS) == \
                b.draw(BANK, row, 1000, 500, BITS)

    def test_seed_changes_the_campaign(self):
        a, b = _model(seed=5), _model(seed=6)
        draws_a = [a.draw(BANK, row, 1000, 500, BITS) for row in range(256)]
        draws_b = [b.draw(BANK, row, 1000, 500, BITS) for row in range(256)]
        assert draws_a != draws_b

    def test_draws_are_stateless(self):
        # Interleaving other draws must not perturb a given key's draw.
        model = _model()
        before = model.draw(BANK, 7, 123, 50, BITS)
        for row in range(32):
            model.draw(BANK, row, 999, 10, BITS)
        assert model.draw(BANK, 7, 123, 50, BITS) == before

    @settings(deadline=None, max_examples=200)
    @given(seed=st.integers(-2**40, 2**40),
           kind=st.sampled_from([kind.value for kind in DeviceFaultKind]),
           key=st.lists(st.one_of(st.integers(-2**40, 2**40),
                                  st.sampled_from(["a", "bank", "x'y"])),
                        max_size=6))
    def test_uniform_is_the_digest_of_the_key_repr(self, seed, kind, key):
        # Hashing the payload prefix once per kind changes no draw: each
        # is still BLAKE2b of ``repr((seed, kind, key))``, 1-tuple and
        # empty keys included.
        model = _model(seed=seed)
        payload = repr((seed, kind, tuple(key))).encode("ascii")
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        expected = int.from_bytes(digest, "big") / 2.0 ** 64
        assert model._uniform(kind, *key) == expected
        assert model._uniform(kind, *key) == expected

    def test_model_pickles_as_its_config(self):
        model = _model()
        model.draw(BANK, 3, 77, 20, BITS)
        clone = pickle.loads(pickle.dumps(model))
        assert clone.config == model.config
        assert clone.draw(BANK, 3, 77, 20, BITS) == \
            model.draw(BANK, 3, 77, 20, BITS)


class TestZeroRates:
    def test_zero_config_draws_nothing_anywhere(self):
        model = DeviceFaultModel(ReliabilityConfig(seed=42))
        for row in range(128):
            assert model.draw(BANK, row, row * 100, row * 10, BITS) == \
                FaultDraw()

    def test_zero_retention_window_progress_draws_no_retention(self):
        model = _model(transient_ber=0.0, hard_row_rate=0.0)
        draw = model.draw(BANK, 0, 1000, 0, BITS)
        assert draw.retention_bits == 0


class TestHardFaults:
    def test_hard_rows_are_sticky_across_time(self):
        model = _model(hard_row_rate=0.2, transient_ber=0.0,
                       retention_ber=0.0)
        hard_rows = [row for row in range(128)
                     if model.row_is_hard(BANK, row)]
        assert hard_rows, "rate 0.2 over 128 rows drew no hard rows"
        for row in hard_rows:
            for now in (0, 1_000, 1_000_000):
                assert model.draw(BANK, row, now, 0, BITS).hard

    def test_skip_hard_models_a_spared_row(self):
        model = _model(hard_row_rate=1.0)
        assert model.draw(BANK, 0, 0, 0, BITS).hard
        assert not model.draw(BANK, 0, 0, 0, BITS, skip_hard=True).hard

    def test_weak_bank_makes_every_row_hard(self):
        model = _model(hard_row_rate=0.0, hard_bank_rate=1.0)
        assert model.bank_is_weak(BANK)
        for row in range(16):
            assert model.row_is_hard(BANK, row)

    def test_sticky_draws_are_drawn_once_per_key(self, monkeypatch):
        """The time-independent draws are memoized per key: a repeat asks
        no digest and gives the first draw, each the draw of its own key,
        and the memo stays out of the pickle, which carries the config
        alone."""
        config = ReliabilityConfig(seed=5, hard_row_rate=0.3,
                                   hard_bank_rate=0.3)
        model = DeviceFaultModel(config)
        banks = [(0, 0, bank_group, bank) for bank_group in range(4)
                 for bank in range(4)]
        first = [(model.bank_is_weak(bank), model.row_is_hard(bank, row))
                 for bank in banks for row in range(8)]
        pristine = pickle.dumps(DeviceFaultModel(config))
        assert pickle.dumps(model) == pristine

        def no_draw(*args):
            raise AssertionError("a memoized draw hashed again")

        monkeypatch.setattr(model, "_uniform", no_draw)
        assert [(model.bank_is_weak(bank), model.row_is_hard(bank, row))
                for bank in banks for row in range(8)] == first
        uniform = DeviceFaultModel(config)._uniform
        weak_banks = {
            bank: uniform(DeviceFaultKind.HARD_BANK.value, *bank) < 0.3
            for bank in banks}
        assert first == [
            (weak_banks[bank], weak_banks[bank] or uniform(
                DeviceFaultKind.HARD_ROW.value, *bank, row) < 0.3)
            for bank in banks for row in range(8)]
        assert any(weak for weak, _ in first)
        assert any(hard for _, hard in first)
        assert not all(hard for _, hard in first)


class TestRetentionScaling:
    def test_retention_mean_grows_with_time_since_refresh(self):
        # Statistical but seeded, hence deterministic: totals over many
        # rows at 1% vs 100% of the retention window must be ordered.
        model = _model(transient_ber=0.0, hard_row_rate=0.0,
                       retention_ber=1e-4, retention_window_ns=1_000_000)
        fresh = sum(model.draw(BANK, row, 500, 10_000, BITS).retention_bits
                    for row in range(200))
        stale = sum(model.draw(BANK, row, 500, 1_000_000, BITS).retention_bits
                    for row in range(200))
        assert stale > fresh

    def test_retention_saturates_at_one_window(self):
        model = _model(transient_ber=0.0, hard_row_rate=0.0,
                       retention_ber=1e-4, retention_window_ns=1_000_000)
        for row in range(50):
            at_window = model.draw(BANK, row, 500, 1_000_000, BITS)
            beyond = model.draw(BANK, row, 500, 50_000_000, BITS)
            assert at_window == beyond
