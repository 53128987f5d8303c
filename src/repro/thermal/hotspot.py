"""Hot-spot policy: the 45 degC threshold controller for the TEC.

The paper defines a hot spot as surface temperature exceeding 45 degC
(Wienert et al.) and powers the TEC directly from the switch facility
whenever the monitored spot crosses that threshold.  We add a small
hysteresis band so the controller does not chatter around the
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..durability.state import pack_state, unpack_state

__all__ = ["HOT_SPOT_THRESHOLD_C", "ThermostatController"]

#: The paper's hot-spot definition (degC).
HOT_SPOT_THRESHOLD_C = 45.0


@dataclass
class ThermostatController:
    """On/off thermostat with hysteresis.

    Turns the TEC on when the watched temperature rises to
    ``threshold_c`` and off once it falls below
    ``threshold_c - hysteresis_k``.
    """

    threshold_c: float = HOT_SPOT_THRESHOLD_C
    hysteresis_k: float = 2.0

    _on: bool = field(init=False, default=False, repr=False)
    _transitions: List[Tuple[float, bool]] = field(init=False, default_factory=list,
                                                   repr=False)

    def __post_init__(self) -> None:
        if self.hysteresis_k < 0:
            raise ValueError("hysteresis must be non-negative")

    @property
    def is_on(self) -> bool:
        """Current commanded state."""
        return self._on

    @property
    def transitions(self) -> Tuple[Tuple[float, bool], ...]:
        """Log of (time, new_state) switching decisions."""
        return tuple(self._transitions)

    def update(self, temperature_c: float, now_s: float = 0.0) -> bool:
        """Feed a temperature sample; returns the commanded state."""
        if not self._on and temperature_c >= self.threshold_c:
            self._on = True
            self._transitions.append((now_s, True))
        elif self._on and temperature_c < self.threshold_c - self.hysteresis_k:
            self._on = False
            self._transitions.append((now_s, False))
        return self._on

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    _STATE_VERSION = 1

    def state_dict(self) -> dict:
        """Mutable thermostat state (latched state + transition log)."""
        return pack_state(self, self._STATE_VERSION, {
            "on": self._on,
            "transitions": list(self._transitions),
        })

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` in place."""
        payload = unpack_state(self, state, self._STATE_VERSION)
        self._on = payload["on"]
        self._transitions = [tuple(t) for t in payload["transitions"]]
