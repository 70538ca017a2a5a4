"""Wall-clock benchmark of the real Precursor put/get path.

Run from the repository root::

    python -m perf.run [--workload NAME] [--seed N] [--seconds N | --quick]
                       [--trace 0|1] [--out FILE]

See ``perf/README.md`` for the workloads, metric definitions and bounds.
The package puts the repository's ``src`` directory on ``sys.path`` so
it runs without ``PYTHONPATH``; without that directory nothing can be
measured and every entry point fails.
"""

import sys
from pathlib import Path

#: Repository root: the benchmark reads and writes nothing outside it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "repro").is_dir():
    raise ImportError(f"no Precursor sources to benchmark under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
