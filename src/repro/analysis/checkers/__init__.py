"""The repo-specific checkers.  Importing this package registers every
rule with :mod:`repro.analysis.core`."""

from repro.analysis.checkers.asyncdiscipline import AsyncDisciplineChecker
from repro.analysis.checkers.atomicwrite import AtomicWriteChecker
from repro.analysis.checkers.determinism import DeterminismChecker
from repro.analysis.checkers.dtype import DtypeDisciplineChecker
from repro.analysis.checkers.envaccess import EnvAccessChecker
from repro.analysis.checkers.hotpath import HotPathAllocChecker
from repro.analysis.checkers.hotpathflow import HotPathFlowChecker
from repro.analysis.checkers.sharedwrite import SharedWriteChecker
from repro.analysis.checkers.spmd import SpmdProtocolChecker

__all__ = [
    "AsyncDisciplineChecker",
    "AtomicWriteChecker",
    "DeterminismChecker",
    "DtypeDisciplineChecker",
    "EnvAccessChecker",
    "HotPathAllocChecker",
    "HotPathFlowChecker",
    "SharedWriteChecker",
    "SpmdProtocolChecker",
]
