"""``python -m repro.perf --base <checkout>`` — the paired perf gate."""

from __future__ import annotations

import sys

from repro.perf.gate import main

if __name__ == "__main__":
    sys.exit(main())
