"""Importable test doubles shared by the test suite and smoke scripts.

Kill/resume and service tests need policies that are slow (so a
SIGKILL lands *mid-cell*) while remaining **picklable by module
path** -- a subprocess sweep, or a restarted service replaying its
WAL, can import ``repro.testing`` but not a pytest-mangled test
module.
Keeping these doubles here, next to the code they stress, is what
lets the same classes serve unit tests, the service's ``slow_dual``
policy type and the CI smoke scripts.

The delays burn wall time only; the simulated physics (and therefore
every result byte) are identical to the undelayed base policy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .capman.baselines import DualPolicy

__all__ = ["SlowDualPolicy"]


@dataclass
class SlowDualPolicy(DualPolicy):
    """A DualPolicy that wastes ``delay_s`` of wall time per cell.

    Slowing the cell down guarantees fault injection (a SIGKILLed
    sweep process or server) lands while work is genuinely in flight
    instead of after the sweep already finished.
    """

    delay_s: float = 0.4

    def build_pack(self):
        time.sleep(self.delay_s)
        return super().build_pack()
