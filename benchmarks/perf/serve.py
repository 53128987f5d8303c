"""Service launcher for the serve-* workloads.

``python -m benchmarks.perf.serve --root DIR [--job-runners N]
[--trace-dir DIR]`` runs ``CapmanService(root).serve_forever()`` with
the service's own defaults (``cell_workers=1``, ``job_runners=2``)
unless ``--job-runners`` is given, and prints ``READY <port>`` once
the socket is bound.  With ``--trace-dir`` the layer wrappers are
installed first, and SIGTERM writes the ledger before the process
exits.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf.serve")
    parser.add_argument("--root", required=True)
    parser.add_argument("--job-runners", type=int)
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)

    from repro.service import CapmanService

    tracer = None
    if args.trace_dir:
        from .tracing import Tracer, install

        tracer = Tracer(args.trace_dir, role="service")
        install(tracer)

    def _stop(signum, frame):
        raise SystemExit(0)

    def _orphan_watch(parent: int) -> None:
        # A client killed without its teardown must not leave us behind.
        while os.getppid() == parent:
            time.sleep(0.2)
        os._exit(1)

    signal.signal(signal.SIGTERM, _stop)
    threading.Thread(target=_orphan_watch, args=(os.getppid(),),
                     daemon=True).start()
    kwargs = {}
    if args.job_runners is not None:
        kwargs["job_runners"] = args.job_runners
    service = CapmanService(args.root, **kwargs)
    print(f"READY {service.address[1]}", flush=True)
    try:
        service.serve_forever()
    finally:
        if tracer is not None:
            tracer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
