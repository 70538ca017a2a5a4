"""Benchmark harnesses: the paper's figures and table, and later benches.

Every artifact the CLI regenerates -- the paper's §5 figures and
Table 1, the ablations, the extension studies, the claim scorecard, and
the benches beyond the paper (``scaleout``, ``faulttail`` and the gated
``BENCH_*.json`` ones) -- is one entry of
:data:`repro.bench.artifacts.ARTIFACTS`, which names its runner;
:func:`repro.bench.artifacts.write_artifact` writes its files.
``python -m repro.cli list`` prints the registry.

Every result that checks itself -- the ablations, the extensions and
each gated bench -- is a :class:`repro.bench.report.Bounded`: one map
from statement to :class:`~repro.bench.report.Bound`, read alike by the
exit code, the JSON verdict (``bounds``, ``ok``) and the ``FAILED
bound:`` lines of the text.

Throughput/latency numbers come from a discrete-event simulation of the
testbed (:mod:`repro.bench.simulation`) whose cost constants are documented
in :mod:`repro.bench.calibration`; Table 1 runs the *functional* servers and
counts real trusted allocations.  ``cryptobench`` and ``batchbench`` time
the real put/get path on the wall clock.
"""

from repro.bench.calibration import Calibration
from repro.bench.scaleout import ScaleoutResult, run_scaleout
from repro.bench.simulation import SimulationConfig, SimulationResult, simulate
from repro.bench import experiments

__all__ = [
    "Calibration",
    "ScaleoutResult",
    "SimulationConfig",
    "SimulationResult",
    "run_scaleout",
    "simulate",
    "experiments",
]
