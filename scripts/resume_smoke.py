#!/usr/bin/env python
"""Kill-9 resume smoke drill for the journalled sweep engine.

What it does, end to end:

1. runs a small reference sweep uninterrupted in this process;
2. launches the same sweep *journalled* in a subprocess and SIGKILLs
   it once roughly half the cells have committed -- the exact failure
   a preempted batch node delivers;
3. resumes from the write-ahead journal in this process and checks
   the two durability guarantees:

   * no committed cell is recomputed (``cells_resumed`` == commits in
     the journal at kill time), and
   * every per-cell result is byte-identical to the uninterrupted
     reference.

Exits 0 on success, 1 on any violated guarantee.  CI runs this as the
``resume-smoke`` job; it is also handy locally after touching the
durability layer::

    python scripts/resume_smoke.py
"""

import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

_REPO = Path(__file__).resolve().parents[1]
if str(_REPO / "src") not in sys.path:
    sys.path.insert(0, str(_REPO / "src"))

from repro.capman.baselines import DualPolicy  # noqa: E402
from repro.durability.journal import RunJournal  # noqa: E402
from repro.sim.sweep import ScenarioRunner, SweepSpec  # noqa: E402
from repro.workload.generators import VideoWorkload  # noqa: E402
from repro.workload.traces import record_trace  # noqa: E402


@dataclass
class SlowDualPolicy(DualPolicy):
    """A DualPolicy that wastes wall time (only) before each cell.

    The delay guarantees the SIGKILL lands between commits rather than
    after the sweep already finished; the simulated physics -- and so
    the results -- are untouched.
    """

    delay_s: float = 0.4

    def build_pack(self):
        time.sleep(self.delay_s)
        return super().build_pack()


def build_spec() -> SweepSpec:
    trace = record_trace(VideoWorkload(seed=5), 120.0)
    policies = {
        f"Dual{mah}": SlowDualPolicy(capacity_mah=float(mah))
        for mah in (30, 40, 50, 60)
    }
    return SweepSpec(policies=policies, traces={"Video": trace},
                     max_duration_s=900.0)


def _commit_count(journal: Path) -> int:
    try:
        return journal.read_text(errors="replace").count('"type":"cell_commit"')
    except FileNotFoundError:
        return 0


def _cell_bytes(result):
    return [pickle.dumps(r) for r in result.results]


def child_main(journal_path: str) -> None:
    ScenarioRunner(journal=journal_path,
                   checkpoint_every_steps=25).run(build_spec())


def _drill(work: Path) -> int:
    total = len(build_spec())
    target_commits = max(1, total // 2)

    print(f"[resume-smoke] reference run ({total} cells)...")
    reference = ScenarioRunner().run(build_spec())

    journal = work / "sweep.journal"
    print(f"[resume-smoke] journalled child -> {journal}")
    child = subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                              "--child", str(journal)],
                             env=dict(os.environ))
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if _commit_count(journal) >= target_commits:
                break
            if child.poll() is not None:
                print("[resume-smoke] FAIL: child exited before the kill")
                return 1
            time.sleep(0.02)
    finally:
        child.kill()
        child.wait()

    committed = sum(1 for r in RunJournal.replay(journal)
                    if r["type"] == "cell_commit")
    print(f"[resume-smoke] killed -9 with {committed}/{total} cells committed")
    if not 1 <= committed < total:
        print("[resume-smoke] FAIL: kill did not land mid-sweep")
        return 1

    resumed = ScenarioRunner(journal=journal).resume()
    ok = True
    if resumed.stats.cells_resumed != committed:
        print(f"[resume-smoke] FAIL: resumed {resumed.stats.cells_resumed} "
              f"cells from the journal, expected {committed}")
        ok = False
    if resumed.stats.cells_computed != total - committed:
        print(f"[resume-smoke] FAIL: recomputed "
              f"{resumed.stats.cells_computed} cells, expected "
              f"{total - committed}")
        ok = False
    if resumed.failures:
        print(f"[resume-smoke] FAIL: resume reported failures: "
              f"{resumed.failures}")
        ok = False
    if _cell_bytes(resumed) != _cell_bytes(reference):
        print("[resume-smoke] FAIL: resumed results are not byte-identical "
              "to the uninterrupted reference")
        ok = False
    if ok:
        print(f"[resume-smoke] OK: {committed} cells replayed from the "
              f"journal, {total - committed} computed, all "
              f"{total} byte-identical to the uninterrupted run")
    return 0 if ok else 1


def main() -> int:
    """Run the drill in a fresh temp directory: removed on success,
    kept (and its path printed) on failure."""
    work = Path(tempfile.mkdtemp(prefix="resume-smoke-"))
    status = 1
    try:
        status = _drill(work)
    finally:
        if status == 0:
            shutil.rmtree(work, ignore_errors=True)
        else:
            print(f"[resume-smoke] kept {work} for inspection")
    return status


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        child_main(sys.argv[2])
    else:
        sys.exit(main())
