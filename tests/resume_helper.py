"""Child-process entry point for the kill-9 sweep-resume tests.

The parent test launches this module in a subprocess (with ``src`` and
this directory on ``PYTHONPATH``), waits for the journal to accumulate
at least one committed cell, and SIGKILLs it mid-sweep.  The policy
classes live here -- at module level, importable under the same name
from both sides -- so the spec pickled into the journal's
``sweep_start`` record unpickles cleanly in the resuming parent.

Run as::

    python -c "import sys, resume_helper; resume_helper.main(sys.argv[1])" <journal>
"""

import time
from dataclasses import dataclass

from repro.capman.baselines import DualPolicy
from repro.sim.sweep import ScenarioRunner, SweepSpec
from repro.workload.generators import VideoWorkload
from repro.workload.traces import record_trace


@dataclass
class SlowDualPolicy(DualPolicy):
    """A :class:`DualPolicy` with an artificial per-cell delay.

    The delay guarantees the parent's SIGKILL lands *between* commits,
    not after the sweep already finished; it costs wall time only, so
    results stay identical to an undelayed run of the same spec.
    """

    delay_s: float = 0.5

    def build_pack(self):
        time.sleep(self.delay_s)
        return super().build_pack()


def build_spec(delay_s: float = 0.5) -> SweepSpec:
    """The 4-cell grid both the child and the reference run use."""
    trace = record_trace(VideoWorkload(seed=5), 120.0)
    policies = {
        f"Dual{mah}": SlowDualPolicy(capacity_mah=float(mah), delay_s=delay_s)
        for mah in (30, 40, 50, 60)
    }
    return SweepSpec(policies=policies, traces={"Video": trace},
                     max_duration_s=900.0)


def main(journal_path: str) -> None:
    runner = ScenarioRunner(journal=journal_path,
                            checkpoint_every_steps=25)
    runner.run(build_spec())


if __name__ == "__main__":
    import sys

    # Re-import under the canonical module name so pickled objects
    # reference ``resume_helper``, not ``__main__``.
    import resume_helper

    resume_helper.main(sys.argv[1])
