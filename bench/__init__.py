"""Whole-middleware benchmark: named workloads, end-to-end metrics and a
per-layer wall-time trace.  Run from the repository root with
``python -m bench``; see ``bench/README.md``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The benchmark measures the checkout it sits in, with no install step.
if SRC.is_dir() and str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
