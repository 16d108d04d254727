"""Workloads: synthetic generators calibrated to the paper's traces.

The paper's estimator results rest on measured properties of 200K+
production jobs (Table III, Fig. 5); no such trace ships with the paper,
so :mod:`repro.workload.synthetic` generates traces that reproduce every
statistic it reports:

* 80–90 % of user runtime estimates are overestimates (Fig. 5a);
* job-correlation ratio decays with submission interval, stabilising
  at ≈0.3 (Tianhe-2A) / ≈0 (NG-Tianhe) beyond ~30 h (Fig. 5b);
* correlation decays with job-ID gap, stabilising ≈0.08 past 700
  (Fig. 5c);
* 71.4 % of >6 h jobs are submitted between 18:00 and 24:00;
* a user resubmits a job from their last 24 h with ~89.2 % probability.

:mod:`repro.workload.analysis` recomputes those statistics from any
trace, which is how ``bench_fig5`` closes the loop.
"""

from repro.workload.analysis import (
    estimate_accuracy_values,
    job_correlation_by_id_gap,
    job_correlation_by_interval,
)
from repro.workload.synthetic import WorkloadConfig, generate_trace
from repro.workload.trace import JobTrace

__all__ = [
    "WorkloadConfig",
    "generate_trace",
    "JobTrace",
    "estimate_accuracy_values",
    "job_correlation_by_interval",
    "job_correlation_by_id_gap",
]
