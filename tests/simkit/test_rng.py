"""Tests for RNG stream state round-trips and restore isolation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.simkit.rng import RngRegistry


class TestGetSetState:
    def test_exact_round_trip_mid_stream(self):
        reg = RngRegistry(seed=5)
        reg.stream("a").random(7)  # advance off the derivation point
        reg.stream("b").integers(10, size=3)
        state = reg.getstate()
        expected_a = reg.stream("a").random(5)
        expected_b = reg.stream("b").random(5)
        reg.setstate(state)
        assert np.array_equal(reg.stream("a").random(5), expected_a)
        assert np.array_equal(reg.stream("b").random(5), expected_b)

    def test_setstate_materialises_missing_streams(self):
        source = RngRegistry(seed=5)
        source.stream("fabric").random(11)
        fresh = RngRegistry(seed=5)
        fresh.setstate(source.getstate())  # "fabric" never touched here
        assert np.array_equal(
            fresh.stream("fabric").random(4), source.stream("fabric").random(4)
        )

    def test_getstate_is_a_frozen_copy(self):
        # The snapshot must not move when the live registry keeps drawing
        # (numpy's state dict aliases mutable internals).
        reg = RngRegistry(seed=1)
        reg.stream("x").random(3)
        state = reg.getstate()
        frozen = repr(state)
        reg.stream("x").random(1000)
        assert repr(state) == frozen

    def test_setstate_does_not_alias_the_input(self):
        # Mutating the state dict after restore must not move the stream.
        reg = RngRegistry(seed=2)
        reg.stream("x").random(3)
        state = reg.getstate()
        reg.setstate(state)
        expected = reg.stream("x").random(4)
        reg.setstate(state)
        state["x"]["state"]["state"] = 0  # corrupt the caller's copy
        assert np.array_equal(reg.stream("x").random(4), expected)

    def test_two_restores_cannot_influence_each_other(self):
        # The satellite contract: two registries restored from ONE
        # captured state are fully independent — draining one leaves the
        # other byte-identical to a third, untouched restore.
        source = RngRegistry(seed=9)
        source.stream("sched").random(13)
        state = source.getstate()
        first, second, control = (RngRegistry(seed=9) for _ in range(3))
        first.setstate(state)
        second.setstate(state)
        control.setstate(state)
        first.stream("sched").random(10_000)  # drain one restore
        assert np.array_equal(
            second.stream("sched").random(6), control.stream("sched").random(6)
        )


class TestAdopt:
    def test_adopt_registers_without_drawing(self):
        reg = RngRegistry(seed=4)
        gen = np.random.default_rng(4)
        expected = np.random.default_rng(4).random(5)
        assert reg.adopt("est", gen) is gen
        assert "est" in reg
        assert np.array_equal(gen.random(5), expected)  # no draw consumed

    def test_adopt_same_object_idempotent_different_object_rejected(self):
        reg = RngRegistry(seed=4)
        gen = np.random.default_rng(4)
        reg.adopt("est", gen)
        reg.adopt("est", gen)  # same object: fine
        with pytest.raises(SimulationError, match="already registered"):
            reg.adopt("est", np.random.default_rng(4))

    def test_adopted_stream_round_trips(self):
        reg = RngRegistry(seed=4)
        gen = reg.adopt("est", np.random.default_rng(4))
        gen.random(9)
        state = reg.getstate()
        expected = gen.random(5)
        other = RngRegistry(seed=4)
        other.adopt("est", np.random.default_rng(4))
        other.setstate(state)
        assert np.array_equal(other.stream("est").random(5), expected)

    def test_bit_generator_mismatch_rejected(self):
        reg = RngRegistry(seed=4)
        reg.adopt("est", np.random.Generator(np.random.MT19937(4)))
        reg.stream("est").random(3)
        state = reg.getstate()
        fresh = RngRegistry(seed=4)  # "est" would derive as PCG64 here
        with pytest.raises(SimulationError, match="re-adopt"):
            fresh.setstate(state)


class TestSeed:
    def test_negative_seed_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="seed must be >= 0, got -1"):
            RngRegistry(seed=-1)
