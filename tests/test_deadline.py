"""End-to-end request deadlines (`repro.util.deadline`)."""

from __future__ import annotations

import pytest

from repro.util.deadline import (
    Deadline,
    DeadlineExceeded,
    current_deadline,
    deadline_scope,
)


class FakeClock:
    def __init__(self):
        self.now = 50.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


class TestDeadline:
    def test_remaining_counts_down_on_the_injected_clock(self, clock):
        deadline = Deadline.after(2.0, clock)
        assert deadline.remaining() == pytest.approx(2.0)
        clock.advance(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        assert not deadline.expired

    def test_expired_and_check(self, clock):
        deadline = Deadline.after(1.0, clock)
        deadline.check("anything")  # no-op while alive
        clock.advance(1.0)
        assert deadline.expired
        with pytest.raises(DeadlineExceeded, match="before the wait"):
            deadline.check("the wait")

    def test_deadline_exceeded_is_a_timeout_error(self):
        # The HTTP ladder's existing TimeoutError arm (400
        # deadline_exceeded) must catch it with no new plumbing.
        assert issubclass(DeadlineExceeded, TimeoutError)

    def test_clamp_bounds_a_socket_timeout(self, clock):
        deadline = Deadline.after(2.0, clock)
        assert deadline.clamp(30.0) == pytest.approx(2.0)
        assert deadline.clamp(0.5) == pytest.approx(0.5)

    def test_clamp_of_none_means_the_remaining_budget(self, clock):
        deadline = Deadline.after(2.0, clock)
        assert deadline.clamp(None) == pytest.approx(2.0)

    def test_clamp_never_returns_a_nonpositive_timeout(self, clock):
        # A zero socket timeout means non-blocking, not "expired" —
        # callers check() first, then clamp.
        deadline = Deadline.after(0.5, clock)
        clock.advance(10.0)
        assert deadline.clamp(30.0) == 0.001
        assert deadline.clamp(None) == 0.001


class TestScope:
    def test_no_ambient_deadline_by_default(self):
        assert current_deadline() is None

    def test_scope_from_a_relative_budget(self):
        with deadline_scope(5.0) as deadline:
            assert current_deadline() is deadline
            assert 0.0 < deadline.remaining() <= 5.0
        assert current_deadline() is None

    def test_scope_adopts_an_existing_deadline(self, clock):
        mine = Deadline.after(1.0, clock)
        with deadline_scope(mine) as deadline:
            assert deadline is mine
            assert current_deadline() is mine

    def test_none_budget_leaves_the_ambient_deadline_in_place(self, clock):
        outer = Deadline.after(1.0, clock)
        with deadline_scope(outer):
            with deadline_scope(None) as inner:
                assert inner is outer
                assert current_deadline() is outer

    def test_scopes_nest_and_restore(self, clock):
        outer = Deadline.after(9.0, clock)
        inner = Deadline.after(1.0, clock)
        with deadline_scope(outer):
            with deadline_scope(inner):
                assert current_deadline() is inner
            assert current_deadline() is outer
        assert current_deadline() is None
