"""Message-passing substrate: an MPI-like communicator, the cartesian
decomposition with ghost planes, halo exchange, band migration, and the
parallel LBM driver mirroring the paper's Figure 2 pseudocode.

mpi4py and a physical cluster are unavailable in this reproduction, so
the world runs inside one machine on either of two transports sharing
one :class:`Communicator` contract: ``threads`` (ranks are threads
exchanging numpy buffers through blocking channels — emulated
multi-node, zero startup cost) and ``processes`` (ranks are forked
processes moving array payloads through shared-memory rings — real
multi-core execution).  The protocol — who sends which directions to
which neighbour, where the two synchronization points sit, how planes
migrate — is exactly the paper's; only the transport is swappable (see
:mod:`repro.parallel.launch` and ``REPRO_TRANSPORT``).
"""

from repro.parallel.api import Communicator, CommunicatorTimeout
from repro.parallel.threads import ThreadCommunicator, LocalCluster, run_spmd
from repro.parallel.process import ProcessCluster, ProcessCommunicator
from repro.parallel.launch import TRANSPORTS, launch_spmd, resolve_transport
from repro.parallel.halo import HaloExchanger
from repro.parallel.driver import ParallelLBM, ParallelRunResult

__all__ = [
    "Communicator",
    "CommunicatorTimeout",
    "ThreadCommunicator",
    "LocalCluster",
    "run_spmd",
    "ProcessCluster",
    "ProcessCommunicator",
    "TRANSPORTS",
    "launch_spmd",
    "resolve_transport",
    "HaloExchanger",
    "ParallelLBM",
    "ParallelRunResult",
]
