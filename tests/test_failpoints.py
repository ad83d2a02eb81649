"""The failpoint framework itself: arming, budgets and seeds.

The fault-injection suites (``test_fault_injection.py``,
``test_chaos.py``) lean entirely on these semantics, so they are pinned
here first: zero-cost when disabled, deterministic under a seed and
bounded by ``times=``.
"""

from __future__ import annotations

import time

import pytest

from repro.util import failpoints
from repro.util.failpoints import (
    Delay,
    FailpointError,
    Raise,
    Return,
    activated,
)


class TestDisabled:
    def test_fail_is_a_noop_without_activation(self):
        assert not failpoints.is_active()
        assert failpoints.fail("anything.at.all") is None

    def test_counters_read_zero_without_activation(self):
        assert failpoints.evaluations("x") == 0
        assert failpoints.firings("x") == 0

    def test_unarmed_site_inside_activation_is_a_noop(self):
        with activated({"a": Raise()}):
            assert failpoints.fail("b") is None
            assert failpoints.evaluations("b") == 1
            assert failpoints.firings("b") == 0


class TestActions:
    def test_raise_defaults_to_failpoint_error_naming_the_site(self):
        with activated({"s": Raise()}):
            with pytest.raises(FailpointError, match="'s'"):
                failpoints.fail("s")

    def test_raise_rethrows_the_given_instance(self):
        error = OSError(28, "No space left on device")
        with activated({"s": Raise(error)}):
            with pytest.raises(OSError) as excinfo:
                failpoints.fail("s")
            assert excinfo.value is error

    def test_raise_calls_a_factory_per_firing(self):
        with activated({"s": Raise(lambda: OSError(5, "I/O error"))}):
            first = pytest.raises(OSError, failpoints.fail, "s")
            second = pytest.raises(OSError, failpoints.fail, "s")
            assert first.value is not second.value

    def test_return_hands_back_the_injected_value(self):
        with activated({"s": Return({"injected": True})}):
            assert failpoints.fail("s") == {"injected": True}

    def test_delay_sleeps_roughly_the_requested_time(self):
        with activated({"s": Delay(0.05)}):
            begin = time.monotonic()
            failpoints.fail("s")
            assert time.monotonic() - begin >= 0.04


class TestBudgetsAndSeeds:
    def test_times_caps_firings(self):
        with activated({"s": Raise(times=2)}):
            for _ in range(2):
                with pytest.raises(FailpointError):
                    failpoints.fail("s")
            assert failpoints.fail("s") is None  # budget spent → heal
            assert failpoints.firings("s") == 2
            assert failpoints.evaluations("s") == 3

    def test_times_zero_never_fires(self):
        with activated({"s": Raise(times=0)}):
            assert failpoints.fail("s") is None

    def test_probability_draws_are_a_pure_function_of_the_seed(self):
        def schedule(seed: int) -> list[bool]:
            fired = []
            with activated({"s": Raise(probability=0.5)}, seed=seed):
                for _ in range(32):
                    try:
                        failpoints.fail("s")
                        fired.append(False)
                    except FailpointError:
                        fired.append(True)
            return fired

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)
        assert any(schedule(7)) and not all(schedule(7))

    def test_nested_activation_is_refused(self):
        with activated({"s": Raise()}):
            with pytest.raises(RuntimeError, match="already active"):
                with activated({"t": Raise()}):
                    pass  # pragma: no cover

    def test_activation_is_disarmed_on_exit_even_after_errors(self):
        with pytest.raises(ZeroDivisionError):
            with activated({"s": Raise()}):
                1 / 0
        assert not failpoints.is_active()
        assert failpoints.fail("s") is None

    def test_invalid_parameters_are_rejected(self):
        with pytest.raises(ValueError):
            Raise(probability=1.5)
        with pytest.raises(ValueError):
            Raise(times=-1)
        with pytest.raises(ValueError):
            Delay(-0.1)
