"""Script entry: ``python3 benchmarks/perf/run.py ...`` == ``python -m benchmarks.perf ...``."""

import sys
from pathlib import Path

# Import the package from the checkout root, not from this directory.
sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.perf.cli import main  # noqa: E402

sys.exit(main())
