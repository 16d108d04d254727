"""The paper-scale tiers and the scenario shape of the e2e benchmark.

:data:`PAPER_SCALE` is the Section VII machine sizes (1K to 131K
nodes, 10K jobs, plus a malleable and a topology-aware 1K variant);
each tier is a golden scenario, so ``repro verify`` re-runs it against
its frozen event-stream digest under ``tests/golden/``.
:class:`BenchScenario` is also the shape of the ``benchmarks/e2e``
workloads.  Speed is judged by ``benchmarks/e2e`` alone.
"""

from repro.bench.scenarios import PAPER_SCALE, BenchScenario

__all__ = ["PAPER_SCALE", "BenchScenario"]
