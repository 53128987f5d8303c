"""Tests for the 45 degC hot-spot thermostat."""

import pytest

from repro.thermal.hotspot import HOT_SPOT_THRESHOLD_C, ThermostatController


class TestThermostat:
    def test_paper_threshold(self):
        assert HOT_SPOT_THRESHOLD_C == 45.0
        assert ThermostatController().threshold_c == 45.0

    def test_turns_on_at_threshold(self):
        t = ThermostatController()
        assert not t.update(44.9)
        assert t.update(45.0)

    def test_hysteresis_prevents_chatter(self):
        t = ThermostatController(hysteresis_k=2.0)
        t.update(46.0)
        assert t.update(44.0)  # inside the band: stays on
        assert not t.update(42.9)  # below band: off

    def test_transitions_logged(self):
        t = ThermostatController()
        t.update(46.0, now_s=1.0)
        t.update(40.0, now_s=2.0)
        assert t.transitions == ((1.0, True), (2.0, False))

    def test_no_duplicate_transitions(self):
        t = ThermostatController()
        t.update(46.0)
        t.update(47.0)
        t.update(48.0)
        assert len(t.transitions) == 1

    def test_negative_hysteresis_rejected(self):
        with pytest.raises(ValueError):
            ThermostatController(hysteresis_k=-1.0)
