"""Single-engine regressions: push-back ordering and the debug gate.

``Simulator.run`` stops at ``until_ns`` and ``max_events`` by popping
the next entry and pushing it back; a later schedule may then legally
land *before* the pushed-back entry.  The pinned repros below keep that
path ordered (the general property lives in
``tests/test_engine_ordering.py``).  The rest pins down that the
``REPRO_DEBUG`` gate validates when armed, costs nothing when released,
and never changes a ``ScenarioResult``.
"""

import json

import pytest

from repro.analysis import invariants
from repro.experiments.runner import Discipline, run_scenario
from repro.experiments.scenarios import ScalePolicy, ScenarioSpec
from repro.netsim.engine import SimulationError, Simulator


class TestScheduleAfterPushBack:
    """Pinned repros: scheduling before a pushed-back entry."""

    def test_schedule_between_bounded_runs(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(640_000, fired.append, "late")
        # Pops the 640us event and pushes it back past the bound.
        sim.run(until_ns=10_000)
        assert sim.now_ns == 10_000
        sim.schedule_at(20_000, fired.append, "early")
        sim.run()
        assert fired == ["early", "late"]
        assert sim.now_ns == 640_000

    def test_schedule_after_max_events_push_back(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1_000, fired.append, "first")
        sim.schedule_at(640_000, fired.append, "late")
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=1)
        sim.schedule_at(5_000, fired.append, "early")
        sim.run()
        assert fired == ["first", "early", "late"]


# -- scenario-level parity: debug gating ---------------------------------------

TINY_POLICY = ScalePolicy(target_rate_bps=5e6, max_rate_bps=5e6)


def _tiny_result(**kwargs):
    spec = ScenarioSpec(name="sched_eq", rate_bps=100e6, rtts_ms=(20, 30),
                        buffer_mtus=60,
                        cca_mix=(("newreno", 1), ("newreno", 1)),
                        duration_s=1.5)
    scaled = TINY_POLICY.apply(spec)
    return run_scenario(scaled, Discipline.CEBINAE, collect_series=True,
                        **kwargs)


def _result_json(result):
    return json.dumps(result.to_dict(), sort_keys=True)


class TestScenarioParity:
    def test_debug_on_off_reproduce_identically(self, monkeypatch):
        monkeypatch.setattr(invariants, "DEBUG", True)
        debug_run = _tiny_result()
        monkeypatch.setattr(invariants, "DEBUG", False)
        release_run = _tiny_result()
        assert _result_json(release_run) == _result_json(debug_run)
        assert release_run == debug_run


class TestDebugGate:
    def test_pytest_arms_debug_by_default(self):
        # The suite must always exercise the validated path.
        assert invariants.DEBUG

    def test_set_debug_returns_previous(self):
        previous = invariants.set_debug(False)
        try:
            assert previous is True
            assert invariants.set_debug(True) is False
        finally:
            invariants.set_debug(previous)

    def test_engine_validates_when_armed(self):
        sim = Simulator()
        with pytest.raises(invariants.InvariantViolation):
            sim.schedule(1.5, lambda: None)

    def test_engine_skips_validation_when_released(self, monkeypatch):
        # Release runs pay zero per-event validation: a float delay is
        # no longer intercepted (the contract is *proved* under debug,
        # not re-checked per event in production).
        monkeypatch.setattr(invariants, "DEBUG", False)
        sim = Simulator()
        sim.schedule(1, lambda: None)  # Normal path still works.
        sim.schedule(1.5, lambda: None)  # Not intercepted when released.

    def test_run_until_is_always_validated(self, monkeypatch):
        # Once per run, not per event — stays armed in release mode.
        monkeypatch.setattr(invariants, "DEBUG", False)
        sim = Simulator()
        with pytest.raises(invariants.InvariantViolation):
            sim.run(until_ns=0.5)

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG", "0")
        assert invariants._default_debug() is False
        monkeypatch.setenv("REPRO_DEBUG", "1")
        assert invariants._default_debug() is True
        monkeypatch.delenv("REPRO_DEBUG")
        assert invariants._default_debug() is True  # pytest is loaded.
