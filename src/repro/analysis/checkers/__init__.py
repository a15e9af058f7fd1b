"""The repo-specific checkers.  Importing this package registers every
rule with :mod:`repro.analysis.core`."""

from repro.analysis.checkers.atomicwrite import AtomicWriteChecker
from repro.analysis.checkers.determinism import DeterminismChecker
from repro.analysis.checkers.dtype import DtypeDisciplineChecker
from repro.analysis.checkers.envaccess import EnvAccessChecker
from repro.analysis.checkers.hotpath import HotPathAllocChecker
from repro.analysis.checkers.sharedwrite import SharedWriteChecker

__all__ = [
    "AtomicWriteChecker",
    "DeterminismChecker",
    "DtypeDisciplineChecker",
    "EnvAccessChecker",
    "HotPathAllocChecker",
    "SharedWriteChecker",
]
