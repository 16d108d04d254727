"""Exception hierarchy shared across the library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The discrete-event kernel was driven into an invalid state."""


class ProcessInterrupt(ReproError):
    """Raised inside a simulation process that another process interrupted.

    Carries the ``cause`` handed to :meth:`repro.simkit.process.Process.interrupt`.
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause


class ConfigurationError(ReproError):
    """A component was configured with inconsistent or invalid parameters."""


class ClusterError(ReproError):
    """Invalid operation on the cluster substrate (unknown node, bad state...)."""


class NetworkError(ReproError):
    """A network-layer failure that is *not* a simulated link fault."""


class SchedulingError(ReproError):
    """The scheduler was asked to do something impossible (e.g. a job
    larger than the whole machine)."""


class EstimationError(ReproError):
    """The runtime-estimation framework hit an unusable configuration or
    was queried before any model was trained."""


# ---------------------------------------------------------------------------
# CLI exit codes
# ---------------------------------------------------------------------------
# A check that *ran* but found violations is EXIT_FAILURE; EXIT_USAGE is
# argparse's own exit code for malformed command lines.

EXIT_OK = 0          #: success
EXIT_FAILURE = 1     #: ran, but the check/verification failed
EXIT_USAGE = 2       #: malformed command line (argparse)
EXIT_CONFIG = 3      #: :class:`ConfigurationError` — bad parameters
EXIT_INTERNAL = 4    #: unexpected internal error
