"""``python -m repro.service`` -- serve the sweep API.

Prints one ``listening on http://HOST:PORT`` line (flushed) once the
socket is bound, so wrappers -- the smoke script, the crash-safety
tests -- can scrape the ephemeral port and then SIGKILL the process
whenever they please: all durability lives in the WAL under
``--root``, and a restart with the same root resumes every unfinished
job without recomputing a committed cell.  Jobs run inside this
process: ``--job-runners`` threads, each driving one sweep at a time.
"""

from __future__ import annotations

import argparse
import sys

from .app import DEFAULT_MAX_BODY, CapmanService


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="CAPMAN sweep service (stdlib HTTP, durable job queue)")
    parser.add_argument("--root", required=True,
                        help="state directory (WAL, per-job journals, "
                             "shared result cache)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="bind port (0 = ephemeral)")
    parser.add_argument("--job-runners", type=int, default=2,
                        help="concurrent jobs")
    parser.add_argument("--max-body-bytes", type=int,
                        default=DEFAULT_MAX_BODY)
    args = parser.parse_args(argv)

    service = CapmanService(
        root=args.root, host=args.host, port=args.port,
        job_runners=args.job_runners,
        max_body_bytes=args.max_body_bytes)
    host, port = service.address
    print(f"listening on http://{host}:{port}", flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
