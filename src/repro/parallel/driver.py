"""The parallel multicomponent LBM driver — Figure 2 of the paper, for real.

Each rank owns an x-slab of the channel — or, under a 2-D
:class:`~repro.parallel.decomposition.CartTopology`, a rectangle of x
planes × cross-section columns — plus ghost cells, and runs, per phase:
collision, halo exchange of the boundary distribution functions,
streaming + bounce-back, moment update, halo exchange of the number
densities, force and velocity computation.  Every ``REMAPPING_INTERVAL``
phases the ranks exchange load indices with their chain neighbours (or
allgather for the global scheme), agree on plane transfers using exactly
the window logic of :mod:`repro.core.policies`, and migrate raw
population planes; a 2-D grid rebalances each axis' bands the same way
from one shared allgather.

By default the halo exchange is *overlapped*: each rank collides its
one-plane x-boundary strips first, posts the nonblocking f exchange,
collides the interior while the messages fly, and only then waits — the
same split applies to the moment update around the density exchange.
Both schedules are bit-identical (collision and moments are pointwise),
so ``halo_overlap=False`` changes timing only; fault-injection runs
force the blocking schedule so the ``mid_phase`` fault point fires with
no messages in flight.

The transport is the in-process :class:`~repro.parallel.threads.LocalCluster`;
to make remapping *behaviour* testable without real background jobs, a
``load_time_fn`` can replace wall-clock measurement as the per-phase load
index (the physics is unaffected — only the remapping decisions see it).
"""

from __future__ import annotations

import time
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.exchange import proportional_targets
from repro.core.history import PhaseTimeHistory
from repro.core.partition import SlicePartition
from repro.core.policies import (
    GlobalPolicy,
    RemappingConfig,
    window_proposal,
)
from repro.ckpt.manifest import (
    CheckpointError,
    CheckpointRejected,
    Manifest,
    ShardInfo,
    check_fingerprint,
    config_fingerprint,
)
from repro.lbm.backends import create_backend
from repro.lbm.equilibrium import rest_equilibrium
from repro.lbm.forces import body_force_field, wall_force_field
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.macroscopic import mixture_velocity
from repro.lbm.solver import LBMConfig
from repro.obs.observer import (
    NULL_OBSERVER,
    Observer,
    ObserverLike,
    resolve_observer,
)
from repro.obs.sink import JsonlSink, MemorySink
from repro.parallel.api import Communicator
from repro.parallel.decomposition import (
    CartTopology,
    SlabDecomposition,
    even_split,
    grid_for,
)
from repro.parallel.halo import HaloExchanger
from repro.parallel.launch import launch_spmd, resolve_transport
from repro.parallel.migration import (
    pack_band,
    pack_planes,
    unpack_band,
    unpack_planes,
)
from repro.util.validation import check_integer

#: Load-index hook: (rank, phase, points) -> seconds.
LoadTimeFn = Callable[[int, int, int], float]


@dataclass
class ParallelRunResult:
    """What one rank reports back after a run.

    ``plane_start``/``plane_count`` are the rank's final slice of the
    global x axis — the plane-ownership map after all dynamic remapping,
    carried explicitly so reassembly never has to assume rank order
    equals x order (it does, for chain migration, and
    :func:`assemble_global_f` verifies it).  Under a 2-D decomposition
    ``col_start``/``col_count`` delimit the rank's band of the first
    cross-section axis (``col_count=None``: the full extent, i.e. a 1-D
    slab).  ``exposed_wait_s`` is the cumulative time this rank spent
    blocked in halo waits — communication the compute did not hide."""

    rank: int
    plane_start: int
    f_interior: np.ndarray
    plane_count: int
    plane_history: list[int]
    comp_times: list[float]
    planes_sent: int
    planes_received: int
    mass: float
    col_start: int = 0
    col_count: int | None = None
    exposed_wait_s: float = 0.0


class ParallelLBM:
    """One rank's share of the parallel multicomponent LBM."""

    def __init__(
        self,
        comm: Communicator,
        config: LBMConfig,
        initial_counts: list[int] | None = None,
        *,
        topo: CartTopology | None = None,
        policy: str = "filtered",
        remap_config: RemappingConfig | None = None,
        load_time_fn: LoadTimeFn | None = None,
        observer: ObserverLike = NULL_OBSERVER,
        checkpoint_every: int = 0,
        checkpoint_store=None,
        faults=None,
        halo_overlap: bool = True,
    ):
        geo = config.geometry
        if topo is not None and initial_counts is not None:
            raise ValueError("pass either topo or initial_counts, not both")
        if topo is None:
            counts = (
                list(initial_counts)
                if initial_counts is not None
                else even_split(geo.shape[0], comm.size)
            )
            if len(counts) != comm.size:
                raise ValueError(
                    f"initial_counts must list {comm.size} entries, got "
                    f"{len(counts)}"
                )
            if sum(counts) != geo.shape[0]:
                raise ValueError(
                    "initial plane counts must sum to the global x extent"
                )
            ny = geo.shape[1] if len(geo.shape) > 1 else 1
            topo = CartTopology(counts, [ny])
        else:
            if topo.size != comm.size:
                raise ValueError(
                    f"topology has {topo.size} subdomains for {comm.size} "
                    f"ranks"
                )
            if topo.total_planes != geo.shape[0]:
                raise ValueError(
                    "topology row extents must sum to the global x extent"
                )
            if topo.cols > 1 and (
                len(geo.shape) < 2 or topo.total_cols != geo.shape[1]
            ):
                raise ValueError(
                    "topology column extents must sum to the first "
                    "cross-section extent"
                )
        if checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        if checkpoint_every and checkpoint_store is None:
            raise ValueError("checkpoint_every > 0 needs a checkpoint_store")
        self.comm = comm
        self.config = config
        self.policy_name = policy
        self.remap_config = remap_config or RemappingConfig()
        self.load_time_fn = load_time_fn
        self.topo = topo
        self.rows = topo.rows
        self.cols = topo.cols
        self.row, self.col = topo.coords(comm.rank)
        self.decomp = SlabDecomposition(
            [topo.planes(topo.coords(r)[0]) for r in range(comm.size)]
        )
        #: Checkpointing (see :mod:`repro.ckpt`): a shared store plus the
        #: interval in phases; 0 disables periodic snapshots.
        self.checkpoint_every = checkpoint_every
        self.checkpoint_store = checkpoint_store
        #: Fault-injection plan (:class:`repro.ckpt.FaultPlan`) shared by
        #: every rank; ``None`` in production.
        self.faults = faults
        #: Overlapped halo schedule (see the module docstring).  Fault
        #: injection forces the blocking schedule: the ``mid_phase``
        #: fault point's contract is that no messages are in flight.
        self._overlap = bool(halo_overlap) and faults is None
        #: Global indices of this rank's first interior plane/column.
        #: Maintained incrementally through migrations (the topology
        #: snapshot is not updated after init) — chain migration keeps
        #: ranks ordered along each axis, so low-edge transfers are the
        #: only thing that moves them.
        self.plane_start = topo.plane_start(self.row)
        self.col_start = topo.col_start(self.col) if self.cols > 1 else 0

        # Rank-scoped observability handle; the shared NULL_OBSERVER when
        # neither an observer nor REPRO_OBS_TRACE is provided.
        obs = resolve_observer(observer)
        if obs.enabled and obs.rank is None:
            obs = obs.child(comm.rank)
        self.observer = obs

        lat = config.lattice
        self.cross = geo.shape[1:]
        self.plane_points = int(np.prod(self.cross))
        self.halo = HaloExchanger(lat, comm, observer=obs, topo=topo)
        self.history = PhaseTimeHistory(self.remap_config.history)

        # Geometry/force provider.  x-invariant configurations (the
        # paper's setup: walls along the cross axes, periodic x) share a
        # single cross-section pattern, broadcast along x; an x-varying
        # scenario gets the full global fields, assembled in exactly the
        # sequential solver's order and sliced (with periodic wrap) to
        # each rank's current rectangle by ``_local_patterns``.
        self._x_invariant = (
            config.scenario is None or config.scenario.x_invariant
        )
        src_geo = (
            ChannelGeometry(
                (1, *self.cross),
                wall_axes=geo.wall_axes,
                wall_thickness=geo.wall_thickness,
            )
            if self._x_invariant
            else geo
        )
        self._solid_src = (
            config.scenario.solid_mask(src_geo)
            if config.scenario is not None
            else src_geo.solid_mask()
        )  # (1, *cross) or the full global shape
        n_comp = config.n_components
        self._accel_src = np.zeros(
            (n_comp, lat.D, *src_geo.shape), dtype=np.float64
        )
        if config.wall_force is not None:
            target = config.component_index(config.wall_force.component)
            self._accel_src[target] += wall_force_field(
                src_geo, config.wall_force
            )
        if config.scenario is not None:
            target = config.component_index(config.scenario.component)
            self._accel_src[target] += config.scenario.wall_accel(src_geo)
        if config.body_acceleration is not None:
            body = body_force_field(src_geo, config.body_acceleration)
            for ci in range(n_comp):
                self._accel_src[ci] += body

        self.taus = np.array([c.tau for c in config.components])
        ln = topo.planes(self.row)
        if self.cols > 1:
            lc = topo.cols_of(self.col)
            shape = (ln + 2, lc + 2, *self.cross[1:])
        else:
            shape = (ln + 2, *self.cross)
        self.f = np.zeros((n_comp, lat.Q, *shape), dtype=np.float64)
        self._alloc_state()
        fluid3 = ~self._solid3
        for ci, comp in enumerate(config.components):
            rho0 = np.where(fluid3, comp.rho_init / comp.mass, 0.0)
            rest_equilibrium(rho0, lat, out=self.f[ci])
            self.f[ci, :, 0] = 0.0
            self.f[ci, :, -1] = 0.0
            if self.cols > 1:
                self.f[ci, :, :, 0] = 0.0
                self.f[ci, :, :, -1] = 0.0
        self.phase = 0
        self.planes_sent = 0
        self.planes_received = 0
        self.plane_history: list[int] = [ln]
        self.comp_times: list[float] = []
        self._moments_and_forces(("init", 0))

    # ----------------------------------------------------------- state mgmt
    @property
    def local_planes(self) -> int:
        return self.f.shape[2] - 2

    @property
    def local_cols(self) -> int:
        """This rank's extent along the first cross-section axis (the
        full extent under a 1-D slab)."""
        if self.cols > 1:
            return self.f.shape[3] - 2
        return int(self.cross[0]) if self.cross else 1

    @staticmethod
    def _wrap_take(
        arr: np.ndarray, axis: int, start: int, count: int
    ) -> np.ndarray:
        """*count* entries of *arr* along *axis* from *start*, wrapping
        periodically (ghost cells of edge subdomains read the far side)."""
        idx = np.arange(start, start + count, dtype=np.int64) % arr.shape[axis]
        return np.take(arr, idx, axis=axis)

    def _local_patterns(
        self, shape: tuple[int, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The local (ghost-padded) solid mask and acceleration field for
        this rank's current rectangle: slices of the provider arrays with
        periodic wrap on every decomposed axis, broadcast along x when
        the configuration is x-invariant."""
        solid = self._solid_src
        accel = self._accel_src
        if not self._x_invariant:
            solid = self._wrap_take(solid, 0, self.plane_start - 1, shape[0])
            accel = self._wrap_take(accel, 2, self.plane_start - 1, shape[0])
        if self.cols > 1:
            solid = self._wrap_take(solid, 1, self.col_start - 1, shape[1])
            accel = self._wrap_take(accel, 3, self.col_start - 1, shape[1])
        solid3 = np.broadcast_to(solid, shape).copy()
        return solid3, np.ascontiguousarray(accel)

    def _alloc_state(self) -> None:
        """(Re)allocate the derived fields, the local geometry/force
        slices and the kernel backend's scratch pool for the current
        subdomain size."""
        lat = self.config.lattice
        n_comp = self.config.n_components
        shape = self.f.shape[2:]
        self.rho = np.zeros((n_comp, *shape), dtype=np.float64)
        self.mom = np.zeros((n_comp, lat.D, *shape), dtype=np.float64)
        self.force = np.zeros_like(self.mom)
        self.u_eq = np.zeros_like(self.mom)
        solid3, self._accel = self._local_patterns(shape)
        self._solid3 = solid3
        # Interior-only collide mask (ghosts excluded); psi keeps the
        # fluid pattern on ghosts (their densities are real neighbour
        # data needed by the S-C force).
        fluid3 = ~solid3
        self._psi_mask = fluid3.astype(np.float64)
        collide_mask = fluid3.copy()
        collide_mask[0] = False
        collide_mask[-1] = False
        if self.cols > 1:
            collide_mask[:, 0] = False
            collide_mask[:, -1] = False
        self._collide_mask = collide_mask.astype(np.float64)
        # Ranks inherit the backend from the shared config; scratch is
        # sized for the local slab, so rebuild after every migration.
        self.backend = create_backend(
            self.config, shape, self._solid3, observer=self.observer
        )
        self._build_pieces(shape)

    def _build_pieces(self, shape: tuple[int, ...]) -> None:
        """The overlapped schedule's x pieces: one-plane boundary strips
        (collided first, so their data can travel while the interior
        computes) and the interior block between them.  Each strip gets
        its own backend instance — kernel scratch is shape-bound — plus
        stable views of the derived fields; ``f`` itself is re-sliced at
        every use because streaming rebinds it."""
        self._edge_pieces: list[tuple] = []
        self._mid_piece: tuple | None = None
        if not self._overlap:
            return
        ln = shape[0] - 2
        edges = [slice(1, 2)]
        if ln >= 2:
            edges.append(slice(ln, ln + 1))
        self._edge_pieces = [self._make_piece(sl, shape) for sl in edges]
        if ln > 2:
            self._mid_piece = self._make_piece(slice(2, ln), shape)

    def _make_piece(self, sl: slice, shape: tuple[int, ...]) -> tuple:
        piece_shape = (sl.stop - sl.start, *shape[1:])
        backend = create_backend(
            self.config,
            piece_shape,
            np.ascontiguousarray(self._solid3[sl]),
            observer=self.observer,
        )
        return (
            sl,
            backend,
            self._collide_mask[sl],
            self.rho[:, sl],
            self.u_eq[:, :, sl],
            self.mom[:, :, sl],
        )

    # -------------------------------------------------------------- physics
    def _collide(self) -> None:
        self.backend.collide_bgk(
            self.f, self.rho, self.u_eq, self._collide_mask
        )

    def _collide_piece(self, piece: tuple) -> None:
        sl, backend, mask, rho, u_eq, _ = piece
        backend.collide_bgk(self.f[:, :, sl], rho, u_eq, mask)

    def _moments_piece(self, piece: tuple) -> None:
        # Moments accept any x-slab of the grid, so the full backend
        # serves every piece; collision cannot (equilibrium scratch is
        # sized to the grid), hence the per-piece instances.
        sl, _, _, rho, _, mom = piece
        self.backend.moments(self.f[:, :, sl], rho, mom)

    def _stream_and_bounce(self) -> None:
        self.f = self.backend.stream(self.f)
        self.backend.bounce_back(self.f)

    def _moments_and_forces(self, tag: object) -> None:
        """Moment update + density halo + force/velocity computation (the
        second half of a phase; also rerun after migration)."""
        self.backend.moments(self.f, self.rho, self.mom)
        self.halo.exchange_scalar(self.rho, tag, "halo_rho")
        self.backend.forces_and_velocities(
            self.rho,
            self.mom,
            self.force,
            self.u_eq,
            accel=self._accel,
            psi_mask=self._psi_mask,
            vel_mask=self._collide_mask,
        )

    def step_phase(self) -> float:
        """One full phase; returns the load-index sample for this phase."""
        if self.observer.enabled:
            t_compute = self._timed_phase()
        elif self._overlap:
            t0 = time.perf_counter()
            for piece in self._edge_pieces:
                self._collide_piece(piece)
            pending_f = self.halo.begin_f(self.f, self.phase)
            if self._mid_piece is not None:
                self._collide_piece(self._mid_piece)
            t_compute = time.perf_counter() - t0
            self.halo.finish_f(pending_f)

            t1 = time.perf_counter()
            self._stream_and_bounce()
            for piece in self._edge_pieces:
                self._moments_piece(piece)
            pending_rho = self.halo.begin_scalar(
                self.rho, self.phase, "halo_rho"
            )
            if self._mid_piece is not None:
                self._moments_piece(self._mid_piece)
            self.halo.finish_scalar(pending_rho)
            self.backend.forces_and_velocities(
                self.rho,
                self.mom,
                self.force,
                self.u_eq,
                accel=self._accel,
                psi_mask=self._psi_mask,
                vel_mask=self._collide_mask,
            )
            t_compute += time.perf_counter() - t1
        else:
            t0 = time.perf_counter()
            self._collide()
            t_compute = time.perf_counter() - t0

            if self.faults is not None:
                # Between collision and the halo exchange: the state is
                # mid-update and no messages are in flight, so a job kill
                # here cannot strand a peer in a blocking recv.
                self.faults.fire(
                    "mid_phase", rank=self.comm.rank, at=self.phase
                )
            self.halo.exchange_f(self.f, self.phase)

            t1 = time.perf_counter()
            self._stream_and_bounce()
            self._moments_and_forces(self.phase)
            t_compute += time.perf_counter() - t1

        self.phase += 1
        if self.load_time_fn is not None:
            sample = self.load_time_fn(
                self.comm.rank, self.phase, self.local_planes * self.plane_points
            )
        else:
            sample = max(t_compute, 1e-9)
        self.comp_times.append(sample)
        self.history.record(sample)
        return sample

    def _timed_phase(self) -> float:
        """The same phase sequence with per-segment timings and halo byte
        deltas emitted as one ``phase`` trace event.  Returns the compute
        time with exactly the untraced composition (halo-f wait excluded,
        density-halo wait included, matching the load-index semantics).

        Under the overlapped schedule the event additionally carries
        ``t_halo_wait`` — the exposed communication time, i.e. seconds
        this phase actually blocked in halo waits after the interior
        compute was used to hide the transfers."""
        halo = self.halo
        bf0, bs0 = halo.bytes_f, halo.bytes_scalar
        if self._overlap:
            wf0 = halo.wait_f_seconds
            ws0 = halo.wait_scalar_seconds
            t0 = time.perf_counter()
            for piece in self._edge_pieces:
                self._collide_piece(piece)
            pending_f = halo.begin_f(self.f, self.phase)
            if self._mid_piece is not None:
                self._collide_piece(self._mid_piece)
            t1 = time.perf_counter()
            halo.finish_f(pending_f)
            t2 = time.perf_counter()
            self._stream_and_bounce()
            t3 = time.perf_counter()
            for piece in self._edge_pieces:
                self._moments_piece(piece)
            pending_rho = halo.begin_scalar(self.rho, self.phase, "halo_rho")
            if self._mid_piece is not None:
                self._moments_piece(self._mid_piece)
            t4 = time.perf_counter()
            halo.finish_scalar(pending_rho)
            t5 = time.perf_counter()
            self.backend.forces_and_velocities(
                self.rho,
                self.mom,
                self.force,
                self.u_eq,
                accel=self._accel,
                psi_mask=self._psi_mask,
                vel_mask=self._collide_mask,
            )
            t6 = time.perf_counter()
            self.observer.emit(
                "phase",
                phase=self.phase,
                planes=self.local_planes,
                t_collide=t1 - t0,
                t_halo_f=t2 - t1,
                t_stream_bounce=t3 - t2,
                t_moments=(t4 - t3) + (t6 - t5),
                t_halo_rho=t5 - t4,
                t_total=t6 - t0,
                t_halo_wait=(halo.wait_f_seconds - wf0)
                + (halo.wait_scalar_seconds - ws0),
                halo_f_bytes=halo.bytes_f - bf0,
                halo_rho_bytes=halo.bytes_scalar - bs0,
            )
            return (t1 - t0) + (t6 - t2)
        t0 = time.perf_counter()
        self._collide()
        t1 = time.perf_counter()
        if self.faults is not None:
            self.faults.fire("mid_phase", rank=self.comm.rank, at=self.phase)
        halo.exchange_f(self.f, self.phase)
        t2 = time.perf_counter()
        self._stream_and_bounce()
        t3 = time.perf_counter()
        # _moments_and_forces, split so the density-halo wait is visible.
        self.backend.moments(self.f, self.rho, self.mom)
        t4 = time.perf_counter()
        halo.exchange_scalar(self.rho, self.phase, "halo_rho")
        t5 = time.perf_counter()
        self.backend.forces_and_velocities(
            self.rho,
            self.mom,
            self.force,
            self.u_eq,
            accel=self._accel,
            psi_mask=self._psi_mask,
            vel_mask=self._collide_mask,
        )
        t6 = time.perf_counter()
        self.observer.emit(
            "phase",
            phase=self.phase,
            planes=self.local_planes,
            t_collide=t1 - t0,
            t_halo_f=t2 - t1,
            t_stream_bounce=t3 - t2,
            t_moments=(t4 - t3) + (t6 - t5),
            t_halo_rho=t5 - t4,
            t_total=t6 - t0,
            halo_f_bytes=halo.bytes_f - bf0,
            halo_rho_bytes=halo.bytes_scalar - bs0,
        )
        return (t1 - t0) + (t6 - t2)

    def _interior_view(self) -> np.ndarray:
        """This rank's ghost-free populations (both padded axes stripped
        under a 2-D decomposition)."""
        if self.cols > 1:
            return self.f[:, :, 1:-1, 1:-1]
        return self.f[:, :, 1:-1]

    def _interior_invariants(self) -> tuple[list[float], list[list[float]]]:
        """Per-component interior mass and momentum — the conserved
        quantities migration must not create or destroy (trace payload
        for ``remap_begin``/``remap_end`` events)."""
        interior = self._interior_view()
        c_count, q_count = interior.shape[0], interior.shape[1]
        per_q = interior.reshape(c_count, q_count, -1).sum(axis=2)  # (C, Q)
        masses = [comp.mass for comp in self.config.components]
        mass = [float(m * per_q[ci].sum()) for ci, m in enumerate(masses)]
        mom = per_q @ self.config.lattice.c.astype(np.float64)  # (C, D)
        momentum = [
            [float(m * x) for x in mom[ci]] for ci, m in enumerate(masses)
        ]
        return mass, momentum

    def _emit_remap_state(self, type_: str, rnd: int) -> None:
        mass, momentum = self._interior_invariants()
        self.observer.emit(
            type_, round=rnd, planes=self.local_planes,
            mass=mass, momentum=momentum,
        )

    def _emit_migrate(
        self, rnd: int, action: str, direction: str, package: np.ndarray
    ) -> None:
        self.observer.emit(
            "migrate",
            round=rnd,
            action=action,
            direction=direction,
            planes=int(package.shape[2]),
            bytes=int(package.nbytes),
        )
        self.observer.counter("migration.planes").add(package.shape[2])
        if action == "send":
            self.observer.counter("migration.bytes").add(package.nbytes)

    # ------------------------------------------------------------ remapping
    def _predicted_time(self) -> float:
        return self.remap_config.predictor.predict(self.history)

    def maybe_remap(self) -> None:
        """Run the remapping protocol if this phase sits on the interval
        boundary (call after :meth:`step_phase`)."""
        if self.policy_name == "no-remap":
            return
        if self.phase % self.remap_config.interval != 0:
            return
        traced = self.observer.enabled
        if traced:
            self._emit_remap_state("remap_begin", self.phase)
        if self.cols > 1:
            self._remap_cart()
        elif self.policy_name == "global":
            self._remap_global()
        else:
            self._remap_local()
        if traced:
            self._emit_remap_state("remap_end", self.phase)
        self.plane_history.append(self.local_planes)

    def _remap_local(self) -> None:
        """Distributed conservative/filtered remapping: neighbour load-index
        exchange, window proposals, per-edge conflict netting, migration."""
        comm = self.comm
        rank, size = comm.rank, comm.size
        if size == 1:
            return
        rnd = self.phase
        my_points = self.local_planes * self.plane_points
        my_time = self._predicted_time()

        # 1. Load-index exchange with chain neighbours.
        payload = (my_points, my_time)
        left = rank - 1 if rank > 0 else None
        right = rank + 1 if rank < size - 1 else None
        if left is not None:
            comm.send(left, ("loadidx", rnd, "L"), payload)
        if right is not None:
            comm.send(right, ("loadidx", rnd, "R"), payload)
        info_left = comm.recv(left, ("loadidx", rnd, "R")) if left is not None else None
        info_right = (
            comm.recv(right, ("loadidx", rnd, "L")) if right is not None else None
        )

        # 2. Window proposals (same code the centralized policy runs).
        window: list[tuple[int, float]] = []
        my_idx = 0
        if info_left is not None:
            window.append(info_left)
            my_idx = 1
        window.append(payload)
        if info_right is not None:
            window.append(info_right)
        counts = np.array([w[0] for w in window], dtype=np.float64)
        times = np.array([w[1] for w in window], dtype=np.float64)
        speeds = counts / times
        threshold = self.remap_config.threshold_points_for(self.plane_points)
        filtered = self.policy_name == "filtered"

        def propose(local_j: int) -> float:
            return window_proposal(
                counts,
                speeds,
                my_idx,
                local_j,
                self.remap_config,
                threshold,
                filtered=filtered,
            )

        give_left_pts = propose(my_idx - 1) if info_left is not None else 0.0
        give_right_pts = propose(my_idx + 1) if info_right is not None else 0.0

        # 3. Conflict resolution: exchange proposals per edge and net them.
        if left is not None:
            comm.send(left, ("proposal", rnd, "L"), give_left_pts)
        if right is not None:
            comm.send(right, ("proposal", rnd, "R"), give_right_pts)
        opposing_left = (
            comm.recv(left, ("proposal", rnd, "R")) if left is not None else 0.0
        )
        opposing_right = (
            comm.recv(right, ("proposal", rnd, "L")) if right is not None else 0.0
        )
        # Net flow on my left edge (positive: I send leftward) and right
        # edge (positive: I send rightward); both endpoints compute the
        # same values from the same two proposals.
        net_left = give_left_pts - opposing_left
        net_right = give_right_pts - opposing_right
        out_left = int(net_left // self.plane_points) if net_left > 0 else 0
        out_right = int(net_right // self.plane_points) if net_right > 0 else 0
        in_left = int((-net_left) // self.plane_points) if net_left < 0 else 0
        in_right = int((-net_right) // self.plane_points) if net_right < 0 else 0

        # 4. Clamp own outflows so at least one interior plane stays.
        max_out = self.local_planes - 1
        total_out = out_left + out_right
        if total_out > max_out:
            need = total_out - max_out
            cut_right = min(out_right, -(-need * out_right // max(total_out, 1)))
            cut_left = min(out_left, need - cut_right)
            out_right -= cut_right
            out_left -= cut_left

        traced = self.observer.enabled
        if traced:
            self.observer.emit(
                "remap_decision",
                round=rnd,
                policy=self.policy_name,
                load_index=my_time,
                points=my_points,
                give_left_pts=float(give_left_pts),
                give_right_pts=float(give_right_pts),
                net_left=float(net_left),
                net_right=float(net_right),
                out_left=out_left,
                out_right=out_right,
                in_left=in_left,
                in_right=in_right,
            )

        # 5. Migration (senders include the package; receivers always get a
        # message when the netting said a transfer is due, possibly empty
        # because of the sender's clamp).
        if out_left > 0 or (left is not None and net_left > 0):
            package = None
            if out_left > 0:
                package, self.f = pack_planes(self.f, "left", out_left)
                # Bookkeeping before reallocation: _alloc_state slices the
                # geometry provider by the *new* plane_start.
                self.plane_start += out_left
                self._after_resize(-out_left)
                self.planes_sent += out_left
                if traced:
                    self._emit_migrate(rnd, "send", "left", package)
            comm.send(left, ("migrate", rnd, "L"), package)
        if out_right > 0 or (right is not None and net_right > 0):
            package = None
            if out_right > 0:
                package, self.f = pack_planes(self.f, "right", out_right)
                self._after_resize(-out_right)
                self.planes_sent += out_right
                if traced:
                    self._emit_migrate(rnd, "send", "right", package)
            comm.send(right, ("migrate", rnd, "R"), package)
        if in_left > 0:
            package = comm.recv(left, ("migrate", rnd, "R"))
            if package is not None:
                self.f = unpack_planes(self.f, package, "left")
                self.plane_start -= package.shape[2]
                self._after_resize(package.shape[2])
                self.planes_received += package.shape[2]
                if traced:
                    self._emit_migrate(rnd, "recv", "left", package)
        if in_right > 0:
            package = comm.recv(right, ("migrate", rnd, "L"))
            if package is not None:
                self.f = unpack_planes(self.f, package, "right")
                self._after_resize(package.shape[2])
                self.planes_received += package.shape[2]
                if traced:
                    self._emit_migrate(rnd, "recv", "right", package)

        # 6. Refresh derived state for the (possibly) new slab.
        self._moments_and_forces(("post_remap", rnd))

    def _remap_global(self) -> None:
        """Global scheme: allgather load indices, every rank evaluates the
        same proportional-target decision, then pairwise edge migrations."""
        comm = self.comm
        rank, size = comm.rank, comm.size
        if size == 1:
            return
        rnd = self.phase
        my_planes = self.local_planes
        gathered = comm.allgather(
            (my_planes, self._predicted_time()), ("remap_global", rnd)
        )
        counts = [g[0] for g in gathered]
        times = np.array([g[1] for g in gathered])
        partition = SlicePartition(counts, self.plane_points)
        flows = GlobalPolicy(self.remap_config).decide(partition, times)
        traced = self.observer.enabled
        if traced:
            self.observer.emit(
                "remap_decision",
                round=rnd,
                policy=self.policy_name,
                load_index=float(times[rank]),
                points=my_planes * self.plane_points,
                flows=[int(x) for x in flows],
            )

        # Apply this rank's edges, left first (matching flow semantics:
        # flows[e] planes go from rank e to rank e+1).
        if rank > 0:
            flow = int(flows[rank - 1])
            if flow > 0:  # receiving from the left
                package = comm.recv(rank - 1, ("migrate", rnd, "R"))
                self.f = unpack_planes(self.f, package, "left")
                self.plane_start -= package.shape[2]
                self._after_resize(package.shape[2])
                self.planes_received += package.shape[2]
                if traced:
                    self._emit_migrate(rnd, "recv", "left", package)
            elif flow < 0:  # sending leftward
                package, self.f = pack_planes(self.f, "left", -flow)
                self.plane_start += -flow
                self._after_resize(flow)
                self.planes_sent += -flow
                comm.send(rank - 1, ("migrate", rnd, "L"), package)
                if traced:
                    self._emit_migrate(rnd, "send", "left", package)
        if rank < size - 1:
            flow = int(flows[rank])
            if flow > 0:  # sending rightward
                package, self.f = pack_planes(self.f, "right", flow)
                self._after_resize(-flow)
                self.planes_sent += flow
                comm.send(rank + 1, ("migrate", rnd, "R"), package)
                if traced:
                    self._emit_migrate(rnd, "send", "right", package)
            elif flow < 0:  # receiving from the right
                package = comm.recv(rank + 1, ("migrate", rnd, "L"))
                self.f = unpack_planes(self.f, package, "right")
                self._after_resize(package.shape[2])
                self.planes_received += package.shape[2]
                if traced:
                    self._emit_migrate(rnd, "recv", "right", package)
        self._moments_and_forces(("post_remap", rnd))

    def _remap_cart(self) -> None:
        """Remapping on a 2-D grid: one allgather of every subdomain's
        load index, from which *all* ranks derive identical per-axis
        chain flows — rows rebalance x planes, columns rebalance
        cross-section bands — then bands move pairwise along each axis
        (rows exchange with the vertical neighbour in the same column
        and vice versa, so the grid stays cartesian by construction)."""
        comm = self.comm
        rnd = self.phase
        rows, cols = self.rows, self.cols
        my_time = self._predicted_time()
        gathered = comm.allgather(
            (
                self.row,
                self.col,
                self.local_planes,
                self.local_cols,
                my_time,
            ),
            ("remap_cart", rnd),
        )
        row_planes = [0] * rows
        col_bands = [0] * cols
        row_times: list[list[float]] = [[] for _ in range(rows)]
        col_times: list[list[float]] = [[] for _ in range(cols)]
        for r, c, planes, bands, t in gathered:
            row_planes[r] = planes
            col_bands[c] = bands
            row_times[r].append(t)
            col_times[c].append(t)
        rest_points = int(np.prod(self.cross[1:])) if len(self.cross) > 1 else 1
        flows_r = _chain_flows(
            row_planes,
            [float(np.mean(ts)) for ts in row_times],
            int(self.cross[0]) * rest_points,
            self.policy_name,
            self.remap_config,
        )
        flows_c = _chain_flows(
            col_bands,
            [float(np.mean(ts)) for ts in col_times],
            int(self.config.geometry.shape[0]) * rest_points,
            self.policy_name,
            self.remap_config,
        )
        traced = self.observer.enabled
        if traced:
            self.observer.emit(
                "remap_decision",
                round=rnd,
                policy=self.policy_name,
                load_index=float(my_time),
                points=self.local_planes * self.local_cols * rest_points,
                row_flows=[int(x) for x in flows_r],
                col_flows=[int(x) for x in flows_c],
            )
        topo = self.topo
        row, col = self.row, self.col
        # Row axis: x planes move between vertically adjacent rows (low
        # edge first, matching the 1-D chain protocol's ordering).
        if row > 0:
            flow = int(flows_r[row - 1])
            peer = topo.rank_of(row - 1, col)
            if flow > 0:  # receiving planes from the row above
                package = comm.recv(peer, ("migrate", rnd, "R"))
                self.f = unpack_band(self.f, package, 2, "low")
                self.plane_start -= package.shape[2]
                self.planes_received += package.shape[2]
                if traced:
                    self._emit_migrate(rnd, "recv", "left", package)
            elif flow < 0:  # sending planes upward
                package, self.f = pack_band(self.f, 2, "low", -flow)
                self.plane_start += -flow
                self.planes_sent += -flow
                comm.send(peer, ("migrate", rnd, "L"), package)
                if traced:
                    self._emit_migrate(rnd, "send", "left", package)
        if row < rows - 1:
            flow = int(flows_r[row])
            peer = topo.rank_of(row + 1, col)
            if flow > 0:  # sending planes downward
                package, self.f = pack_band(self.f, 2, "high", flow)
                self.planes_sent += flow
                comm.send(peer, ("migrate", rnd, "R"), package)
                if traced:
                    self._emit_migrate(rnd, "send", "right", package)
            elif flow < 0:
                package = comm.recv(peer, ("migrate", rnd, "L"))
                self.f = unpack_band(self.f, package, 2, "high")
                self.planes_received += package.shape[2]
                if traced:
                    self._emit_migrate(rnd, "recv", "right", package)
        # Column axis: cross-section bands move between horizontally
        # adjacent columns.
        if col > 0:
            flow = int(flows_c[col - 1])
            peer = topo.rank_of(row, col - 1)
            if flow > 0:
                package = comm.recv(peer, ("migrate", rnd, "U"))
                self.f = unpack_band(self.f, package, 3, "low")
                self.col_start -= package.shape[3]
                if traced:
                    self._emit_migrate(rnd, "recv", "down", package)
            elif flow < 0:
                package, self.f = pack_band(self.f, 3, "low", -flow)
                self.col_start += -flow
                comm.send(peer, ("migrate", rnd, "D"), package)
                if traced:
                    self._emit_migrate(rnd, "send", "down", package)
        if col < cols - 1:
            flow = int(flows_c[col])
            peer = topo.rank_of(row, col + 1)
            if flow > 0:
                package, self.f = pack_band(self.f, 3, "high", flow)
                comm.send(peer, ("migrate", rnd, "U"), package)
                if traced:
                    self._emit_migrate(rnd, "send", "up", package)
            elif flow < 0:
                package = comm.recv(peer, ("migrate", rnd, "D"))
                self.f = unpack_band(self.f, package, 3, "high")
                if traced:
                    self._emit_migrate(rnd, "recv", "up", package)
        # One reallocation after both axes settle (the 1-D paths realloc
        # per transfer; here a rank can take part in up to four).
        self._alloc_state()
        self._moments_and_forces(("post_remap", rnd))

    def _after_resize(self, delta: int) -> None:
        self.decomp.adjust(self.comm.rank, delta)
        self._alloc_state()

    # ---------------------------------------------------------- checkpoints
    def check_health(self, max_velocity: float = 0.4) -> None:
        """Raise ``FloatingPointError`` if this rank's interior went
        non-finite or too fast — the gate in front of every checkpoint
        write (a snapshot of a diverged state is worse than none)."""
        rank = self.comm.rank
        if not np.isfinite(self._interior_view()).all():
            raise FloatingPointError(
                f"rank {rank}: non-finite populations at phase {self.phase}"
            )
        u = mixture_velocity(self.rho, self.mom, self.force)
        mask = self._collide_mask > 0.0  # interior fluid nodes
        umax = float(np.abs(u[:, mask]).max()) if mask.any() else 0.0
        if umax > max_velocity:
            raise FloatingPointError(
                f"rank {rank}: velocity {umax:.3f} exceeds stability bound "
                f"{max_velocity} at phase {self.phase}"
            )

    def _shard_arrays(self) -> dict[str, np.ndarray]:
        return {
            "f": np.ascontiguousarray(self._interior_view()),
            "step": np.asarray(self.phase, dtype=np.int64),
            "planes_sent": np.asarray(self.planes_sent, dtype=np.int64),
            "planes_received": np.asarray(
                self.planes_received, dtype=np.int64
            ),
            "plane_history": np.asarray(self.plane_history, dtype=np.int64),
            "history": np.asarray(self.history.times(), dtype=np.float64),
        }

    def _write_checkpoint(self) -> None:
        """Collective checkpoint of the current phase (all ranks call this
        at the same phase boundary).

        Protocol: (1) every rank health-checks itself and the verdicts are
        allgathered — so either all ranks proceed or all raise
        :class:`~repro.ckpt.CheckpointRejected` together, and no rank can
        be left waiting on a peer that bailed; (2) each rank writes its
        shard atomically; (3) the shard records are allgathered and rank 0
        commits the manifest (itself an atomic rename).  A crash anywhere
        before (3) leaves an uncommitted generation that readers ignore.
        """
        comm, store = self.comm, self.checkpoint_store
        step = self.phase
        try:
            self.check_health()
            verdict = None
        except FloatingPointError as exc:
            verdict = str(exc)
        verdicts = comm.allgather(verdict, ("ckpt_health", step))
        bad = [v for v in verdicts if v is not None]
        if bad:
            raise CheckpointRejected("; ".join(bad))
        with self.observer.span("ckpt.save", step=step):
            shard = store.write_shard(
                step,
                comm.rank,
                self._shard_arrays(),
                plane_start=self.plane_start,
                plane_count=self.local_planes,
                col_start=self.col_start,
                col_count=self.local_cols if self.cols > 1 else None,
            )
            infos = comm.allgather(shard.to_json(), ("ckpt_shards", step))
            if comm.rank == 0:
                store.commit(
                    step,
                    config_fingerprint(self.config),
                    [ShardInfo.from_json(doc) for doc in infos],
                )

    def _adopt_interior(
        self,
        f_interior: np.ndarray,
        plane_start: int,
        tag: object,
        col_start: int = 0,
    ) -> None:
        """Replace this rank's subdomain with *f_interior* (no ghosts)
        starting at global plane *plane_start* (and, under 2-D, global
        column *col_start*), then refresh all derived state — the same
        sequence a migration uses, so the next phase continues
        bit-identically."""
        ln = int(f_interior.shape[2])
        if self.cols > 1:
            lc = int(f_interior.shape[3])
            new_f = np.zeros(
                f_interior.shape[:2] + (ln + 2, lc + 2, *self.cross[1:]),
                dtype=np.float64,
            )
            new_f[:, :, 1:-1, 1:-1] = f_interior
        else:
            new_f = np.zeros(
                f_interior.shape[:2] + (ln + 2, *self.cross),
                dtype=np.float64,
            )
            new_f[:, :, 1:-1] = f_interior
        delta = ln - self.local_planes
        self.f = new_f
        if delta:
            self.decomp.adjust(self.comm.rank, delta)
        self.plane_start = int(plane_start)
        self.col_start = int(col_start)
        self._alloc_state()
        self._moments_and_forces(tag)

    def _grid_shard(
        self, manifest: Manifest, shards: tuple[ShardInfo, ...]
    ) -> ShardInfo | None:
        """This rank's shard when the generation's rectangles form
        exactly this run's ``rows × cols`` grid (the 2-D fast path:
        every rank re-adopts its own rectangle); ``None`` sends the
        restore down the reassemble-and-resplit path."""
        if len(shards) != self.comm.size:
            return None
        bands: dict[tuple[int, int], list[ShardInfo]] = {}
        for shard in shards:
            if shard.col_count is None:
                return None
            bands.setdefault(
                (shard.plane_start, shard.plane_count), []
            ).append(shard)
        if len(bands) != self.rows:
            return None
        layouts = {
            tuple((s.col_start, s.col_count) for s in members)
            for members in bands.values()
        }
        if len(layouts) != 1 or len(next(iter(layouts))) != self.cols:
            return None
        # shards_in_x_order sorts by (plane_start, col_start) — exactly
        # the grid's row-major rank order.
        return shards[self.comm.rank]

    def restore_checkpoint(self, manifest: Manifest | None = None) -> Manifest:
        """Collective restore from the store's latest good generation (or
        an explicit *manifest*).

        When the generation's ownership map matches this run's
        decomposition — one shard per rank under a 1-D slab, or a
        rectangle grid congruent with this run's ``rows × cols`` — each
        rank reloads its own shard: ownership, remap history and
        counters resume exactly where they were.  Otherwise (different
        rank count, or crossing between 1-D and 2-D layouts in either
        direction) the global field is reassembled from the shard
        rectangles and re-split evenly over the current decomposition;
        the physics is unchanged (decomposition invariance), only the
        remapping bookkeeping restarts.
        """
        store = self.checkpoint_store
        if store is None:
            raise CheckpointError("this driver has no checkpoint_store")
        if manifest is None:
            manifest = store.latest_good()
            if manifest is None:
                raise CheckpointError(
                    f"no restorable generation under {store.root}"
                )
        check_fingerprint(manifest, self.config)
        comm = self.comm
        shards = manifest.shards_in_x_order()
        with self.observer.span("ckpt.restore", step=manifest.step):
            if self.cols > 1:
                mine = self._grid_shard(manifest, shards)
            elif (
                len(shards) == comm.size
                and not manifest.is_two_dimensional()
            ):
                mine = shards[comm.rank]
            else:
                mine = None
            if mine is not None:
                arrays = store.load_shard_arrays(manifest, mine)
                self._adopt_interior(
                    arrays["f"],
                    mine.plane_start,
                    ("restore", manifest.step),
                    col_start=mine.col_start,
                )
                self.planes_sent = int(arrays["planes_sent"])
                self.planes_received = int(arrays["planes_received"])
                self.plane_history = [
                    int(x) for x in arrays["plane_history"]
                ]
                self.history.clear()
                for sample in arrays["history"]:
                    self.history.record(float(sample))
            else:
                f_global = store.load_global_f(manifest)
                if self.cols > 1:
                    row_counts = even_split(f_global.shape[2], self.rows)
                    col_counts = even_split(f_global.shape[3], self.cols)
                    start = sum(row_counts[: self.row])
                    cstart = sum(col_counts[: self.col])
                    self._adopt_interior(
                        f_global[
                            :,
                            :,
                            start : start + row_counts[self.row],
                            cstart : cstart + col_counts[self.col],
                        ],
                        start,
                        ("restore", manifest.step),
                        col_start=cstart,
                    )
                else:
                    base, extra = divmod(f_global.shape[2], comm.size)
                    if base < 1:
                        raise CheckpointError(
                            f"checkpoint has {f_global.shape[2]} planes, "
                            f"too few for {comm.size} ranks"
                        )
                    counts = [
                        base + (1 if r < extra else 0)
                        for r in range(comm.size)
                    ]
                    start = sum(counts[: comm.rank])
                    self._adopt_interior(
                        f_global[:, :, start : start + counts[comm.rank]],
                        start,
                        ("restore", manifest.step),
                    )
                self.planes_sent = 0
                self.planes_received = 0
                self.plane_history = [self.local_planes]
                self.history.clear()
        self.phase = manifest.step
        if self.observer.enabled:
            self.observer.counter("ckpt.restores").add(1)
        return manifest

    # ------------------------------------------------------------------ run
    def run(self, phases: int) -> ParallelRunResult:
        check_integer(phases, "phases", minimum=0)
        for _ in range(phases):
            if self.faults is not None:
                self.faults.fire(
                    "phase_start", rank=self.comm.rank, at=self.phase
                )
            self.step_phase()
            self.maybe_remap()
            if (
                self.checkpoint_every
                and self.phase % self.checkpoint_every == 0
            ):
                self._write_checkpoint()
        interior = np.ascontiguousarray(self._interior_view())
        exposed = self.halo.wait_f_seconds + self.halo.wait_scalar_seconds
        if self.observer.enabled:
            self.observer.emit(
                "run_end",
                phases=self.phase,
                planes=self.local_planes,
                planes_sent=self.planes_sent,
                planes_received=self.planes_received,
                halo_f_bytes=self.halo.bytes_f,
                halo_rho_bytes=self.halo.bytes_scalar,
                exposed_wait_s=exposed,
            )
        return ParallelRunResult(
            rank=self.comm.rank,
            plane_start=self.plane_start,
            f_interior=interior,
            plane_count=self.local_planes,
            plane_history=self.plane_history,
            comp_times=self.comp_times,
            planes_sent=self.planes_sent,
            planes_received=self.planes_received,
            mass=float(
                sum(
                    comp.mass * interior[ci].sum()
                    for ci, comp in enumerate(self.config.components)
                )
            ),
            col_start=self.col_start,
            col_count=self.local_cols if self.cols > 1 else None,
            exposed_wait_s=exposed,
        )


def _chain_flows(
    counts: list[int],
    times: list[float],
    band_points: int,
    policy: str,
    remap_config: RemappingConfig,
) -> list[int]:
    """Edge flows for one decomposition axis: ``flows[e]`` bands move
    from band *e* to band *e+1* (negative: the other way).  Every rank
    evaluates this on the same allgathered data, so the decisions agree
    without further communication.  ``"global"`` delegates to
    :class:`~repro.core.policies.GlobalPolicy`; the windowed policies
    replicate the distributed chain protocol — per-neighbour
    ``window_proposal``, per-edge netting, per-band outflow clamp — in
    one deterministic sweep."""
    n = len(counts)
    if n <= 1:
        return []
    times_arr = np.asarray(times, dtype=np.float64)
    if policy == "global":
        partition = SlicePartition(list(counts), band_points)
        decided = GlobalPolicy(remap_config).decide(partition, times_arr)
        return [int(x) for x in decided]
    pts = np.asarray(counts, dtype=np.float64) * band_points
    speeds = pts / times_arr
    threshold = remap_config.threshold_points_for(band_points)
    filtered = policy == "filtered"
    give_left = [0.0] * n
    give_right = [0.0] * n
    for i in range(n):
        lo = max(0, i - 1)
        hi = min(n, i + 2)
        my_idx = i - lo
        if i > 0:
            give_left[i] = window_proposal(
                pts[lo:hi],
                speeds[lo:hi],
                my_idx,
                my_idx - 1,
                remap_config,
                threshold,
                filtered=filtered,
            )
        if i < n - 1:
            give_right[i] = window_proposal(
                pts[lo:hi],
                speeds[lo:hi],
                my_idx,
                my_idx + 1,
                remap_config,
                threshold,
                filtered=filtered,
            )
    flows = [0] * (n - 1)
    for e in range(n - 1):
        net = give_right[e] - give_left[e + 1]
        if net > 0:
            flows[e] = int(net // band_points)
        elif net < 0:
            flows[e] = -int((-net) // band_points)
    # Per-band outflow clamp (at least one band must remain), computed
    # from the pre-clamp flows exactly as each rank of the distributed
    # protocol clamps its own outflows from the original nets.
    orig = list(flows)
    for i in range(n):
        out_left = -orig[i - 1] if i > 0 and orig[i - 1] < 0 else 0
        out_right = orig[i] if i < n - 1 and orig[i] > 0 else 0
        max_out = counts[i] - 1
        total_out = out_left + out_right
        if total_out > max_out:
            need = total_out - max_out
            cut_right = min(
                out_right, -(-need * out_right // max(total_out, 1))
            )
            cut_left = min(out_left, need - cut_right)
            if cut_right:
                flows[i] -= cut_right
            if cut_left:
                flows[i - 1] += cut_left
    return flows


def _spec_observer(spec: Any) -> tuple[ObserverLike, bool]:
    """Resolve a RunSpec's observer/trace_path pair to a concrete
    observer; the bool says whether this run owns (must close) it."""
    observer = spec.observer
    if spec.trace_path is not None:
        if observer is not None and observer is not NULL_OBSERVER:
            raise ValueError("pass either observer or trace_path, not both")
        return Observer(sink=JsonlSink(spec.trace_path)), True
    return resolve_observer(observer), False


def _slot_bytes_for(config: LBMConfig) -> int:
    """Shared-memory ring slot size for a process-transport run: one
    full population plane (every component, every direction), so a halo
    message is a single-chunk transfer and a k-plane migration package
    takes k slots."""
    plane_cells = int(np.prod(config.geometry.shape[1:]))
    plane_bytes = config.n_components * config.lattice.Q * plane_cells * 8
    return min(max(plane_bytes, 1 << 12), 1 << 26)


def resolve_decomp(
    decomp: Any, shape: tuple[int, ...], n_ranks: int
) -> tuple[int, int]:
    """Resolve a RunSpec ``decomp`` knob to concrete ``(rows, cols)``
    grid dimensions: ``"auto"``/``"slab"`` keep the 1-D slab,
    ``"grid"`` picks the most-square factorization that fits the
    domain, an explicit tuple is validated against the rank count."""
    if isinstance(decomp, str):
        if decomp == "grid":
            return grid_for(n_ranks, shape)
        if decomp in ("auto", "slab"):
            return (n_ranks, 1)
        raise ValueError(
            f"decomp must be 'auto', 'slab', 'grid' or a (rows, cols) "
            f"tuple, got {decomp!r}"
        )
    rows, cols = int(decomp[0]), int(decomp[1])
    if rows * cols != n_ranks:
        raise ValueError(
            f"decomp {rows}x{cols} describes {rows * cols} subdomains "
            f"for {n_ranks} ranks"
        )
    return rows, cols


def _run_parallel(spec: Any, config: LBMConfig, store: Any) -> list[ParallelRunResult]:
    """Execute a parallel RunSpec (the engine behind
    :func:`repro.api.run`; *config* is the spec's backend-resolved
    configuration and *store* its resolved checkpoint store)."""
    n_ranks = spec.ranks
    phases = spec.phases
    total_planes = config.geometry.shape[0]
    transport = resolve_transport(spec.transport)
    rows, cols = resolve_decomp(
        getattr(spec, "decomp", "auto"), config.geometry.shape, n_ranks
    )
    if cols > 1 and spec.initial_counts is not None:
        raise ValueError(
            "initial_counts is a 1-D slab knob and cannot seed a "
            f"{rows}x{cols} grid; drop it or use decomp=({n_ranks}, 1)"
        )
    topo = (
        CartTopology.from_shape(config.geometry.shape, rows, cols)
        if cols > 1
        else None
    )

    initial_counts = (
        list(spec.initial_counts) if spec.initial_counts is not None else None
    )
    resume_manifest = None
    phases_to_run = phases
    if spec.resume:
        if store is None:
            raise ValueError("resume=True needs a checkpoint_store")
        resume_manifest = store.latest_good()
        if resume_manifest is not None:
            check_fingerprint(resume_manifest, config)
            phases_to_run = max(0, phases - resume_manifest.step)
            shards = resume_manifest.shards_in_x_order()
            if (
                cols == 1
                and len(shards) == n_ranks
                and initial_counts is None
                and not resume_manifest.is_two_dimensional()
            ):
                # Start each rank at its checkpointed slab size so the
                # per-shard restore path needs no reallocation.
                initial_counts = [s.plane_count for s in shards]

    if cols == 1 and initial_counts is None:
        base, extra = divmod(total_planes, n_ranks)
        if base < 1:
            raise ValueError("more ranks than planes")
        initial_counts = [base + (1 if r < extra else 0) for r in range(n_ranks)]

    obs, owns_observer = _spec_observer(spec)
    if obs.enabled:
        obs.emit(
            "run_start",
            n_ranks=n_ranks,
            transport=transport,
            backend=config.backend,
            policy=spec.policy,
            shape=list(config.geometry.shape),
            n_components=config.n_components,
            phases=phases,
            initial_counts=(
                list(initial_counts)
                if initial_counts is not None
                else [int(x) for x in topo.row_counts()]
            ),
            decomp=[rows, cols],
        )

    # Rank processes cannot share the parent's sink object, so under the
    # process transport each rank collects events in a MemorySink pinned
    # to the parent sink's clock origin (perf_counter is CLOCK_MONOTONIC
    # on Linux — one time base across processes) and ships them back
    # with its result; the parent merges them by timestamp.
    fork_obs = transport == "processes" and obs.enabled
    parent_t0 = obs.sink.t0 if fork_obs else 0.0

    def rank_main(comm: Communicator):
        rank_obs: ObserverLike = obs
        rank_sink = None
        if fork_obs:
            rank_sink = MemorySink(t0=parent_t0)
            rank_obs = Observer(sink=rank_sink)
        driver = ParallelLBM(
            comm,
            config,
            list(initial_counts) if topo is None else None,
            topo=topo,
            policy=spec.policy,
            remap_config=spec.remap_config,
            load_time_fn=spec.load_time_fn,
            observer=rank_obs,
            checkpoint_every=spec.checkpoint_every,
            checkpoint_store=store,
            faults=spec.faults,
            halo_overlap=getattr(spec, "halo_overlap", True),
        )
        if resume_manifest is not None:
            driver.restore_checkpoint(manifest=resume_manifest)
        result = driver.run(phases_to_run)
        if rank_sink is not None:
            # This rank's metrics snapshot, emitted unbound (no rank key)
            # exactly like the thread transport's single shared snapshot,
            # so per-rank event schemas are transport-independent.
            rank_obs.emit_metrics()
            return result, rank_sink.events
        return result

    try:
        raw = launch_spmd(
            n_ranks,
            rank_main,
            transport=transport,
            timeout=spec.timeout,
            slot_bytes=_slot_bytes_for(config),
        )
        if fork_obs:
            results = [result for result, _ in raw]
            merged = sorted(
                (event for _, events in raw for event in events),
                key=lambda event: event.get("ts", 0.0),
            )
            obs.sink.absorb(merged)
        else:
            results = raw
            if obs.enabled:
                obs.emit_metrics()
        return results
    finally:
        if owns_observer:
            obs.close()


def run_parallel_lbm(
    n_ranks: int,
    config: LBMConfig,
    phases: int,
    *,
    transport: str | None = None,
    policy: str = "filtered",
    remap_config: RemappingConfig | None = None,
    load_time_fn: LoadTimeFn | None = None,
    initial_counts: list[int] | None = None,
    decomp: str | tuple[int, int] = "auto",
    timeout: float = 600.0,
    observer: ObserverLike = NULL_OBSERVER,
    trace_path: str | None = None,
    checkpoint_every: int = 0,
    checkpoint_store=None,
    resume: bool = False,
    faults=None,
) -> list[ParallelRunResult]:
    """Run the parallel LBM on an in-process cluster of *n_ranks* ranks.

    .. deprecated::
        This is a thin shim over the :mod:`repro.api` facade — build a
        :class:`repro.api.RunSpec` and call :func:`repro.api.run`
        instead.  Every keyword maps 1:1 onto a RunSpec field and the
        results are identical.

    *transport* selects ``"threads"`` or ``"processes"`` (default: the
    ``REPRO_TRANSPORT`` environment variable, then threads).  Returns
    the per-rank results in rank order; use :func:`assemble_global_f`
    to reconstruct the global field.

    Observability: pass an enabled :class:`repro.obs.Observer` (shared
    sink; each rank gets a rank-stamped child), or *trace_path* to write
    a self-contained JSONL trace (``run_start`` metadata, per-phase
    timings and halo bytes, remap/migration events, metrics snapshots).
    With neither, the ``REPRO_OBS_TRACE`` environment variable is
    consulted; unset means zero instrumentation overhead.

    Checkpointing (see :mod:`repro.ckpt`): pass a shared
    :class:`~repro.ckpt.CheckpointStore` plus ``checkpoint_every`` to
    snapshot periodically.  With ``resume=True``, *phases* is the TOTAL
    phase target: the ranks restore the latest good generation (if any)
    and run only the remainder — bit-exactly continuing the interrupted
    run.  *faults* (a :class:`~repro.ckpt.FaultPlan`) injects failures
    for recovery testing; injected :class:`~repro.ckpt.InjectedFault`
    errors surface from the cluster wrapped in ``RuntimeError``.
    """
    warnings.warn(
        "run_parallel_lbm is deprecated; build a repro.api.RunSpec and "
        "call repro.api.run(spec)",
        DeprecationWarning,
        stacklevel=2,
    )
    from repro import api

    spec = api.RunSpec(
        config=config,
        phases=phases,
        ranks=n_ranks,
        transport=transport,
        policy=policy,
        remap_config=remap_config,
        load_time_fn=load_time_fn,
        initial_counts=(
            tuple(initial_counts) if initial_counts is not None else None
        ),
        decomp=decomp,
        timeout=timeout,
        observer=observer,
        trace_path=trace_path,
        checkpoint_every=checkpoint_every,
        checkpoint_store=checkpoint_store,
        resume=resume,
        faults=faults,
    )
    if n_ranks == 1:
        # Legacy semantics: a 1-rank *parallel-driver* run (the facade
        # would dispatch ranks=1 to the sequential solver instead).
        return api.execute_parallel(spec)
    return api.run(spec).rank_results


def assemble_global_f(results: list[ParallelRunResult]) -> np.ndarray:
    """Reassemble per-rank interiors into the global population array
    ``(C, Q, nx, *cross)`` from each rank's final ownership rectangle:
    a 1-D slab run concatenates x bands (verified to tile the x axis
    exactly), a 2-D run places rectangles (verified to tile the
    ``nx × ny`` domain exactly)."""
    if all(r.col_count is None for r in results):
        ordered = sorted(results, key=lambda r: r.plane_start)
        expect = 0
        for r in ordered:
            if r.plane_start != expect:
                raise ValueError(
                    f"rank {r.rank} starts at plane {r.plane_start}, "
                    f"expected {expect}: the ownership map does not tile "
                    f"the x axis"
                )
            if r.plane_count != r.f_interior.shape[2]:
                raise ValueError(
                    f"rank {r.rank} reports {r.plane_count} planes but "
                    f"carries {r.f_interior.shape[2]}"
                )
            expect += r.plane_count
        return np.concatenate([r.f_interior for r in ordered], axis=2)
    if any(r.col_count is None for r in results):
        raise ValueError(
            "cannot assemble a mix of 1-D slab and 2-D rectangle results"
        )
    ordered = sorted(results, key=lambda r: (r.plane_start, r.col_start))
    nx = max(r.plane_start + r.plane_count for r in ordered)
    ny = max(r.col_start + r.col_count for r in ordered)
    first = ordered[0].f_interior
    out = np.zeros(
        first.shape[:2] + (nx, ny) + first.shape[4:], dtype=first.dtype
    )
    seen = np.zeros((nx, ny), dtype=bool)
    for r in ordered:
        if r.f_interior.shape[2:4] != (r.plane_count, r.col_count):
            raise ValueError(
                f"rank {r.rank} reports a {r.plane_count}x{r.col_count} "
                f"rectangle but carries {r.f_interior.shape[2:4]}"
            )
        block = seen[
            r.plane_start : r.plane_start + r.plane_count,
            r.col_start : r.col_start + r.col_count,
        ]
        if block.any():
            raise ValueError(
                f"rank {r.rank}'s rectangle overlaps another rank's: the "
                f"ownership map does not tile the domain"
            )
        block[:] = True
        out[
            :,
            :,
            r.plane_start : r.plane_start + r.plane_count,
            r.col_start : r.col_start + r.col_count,
        ] = r.f_interior
    if not seen.all():
        raise ValueError(
            "ownership rectangles leave gaps: the map does not tile the "
            "domain"
        )
    return out


def solver_from_results(
    results: list[ParallelRunResult], config: LBMConfig
) -> "object":
    """Build a sequential solver holding the parallel run's final state,
    so the full :mod:`repro.lbm.diagnostics` toolbox (profiles, slip
    measures, exporters) applies to parallel output directly."""
    from repro.lbm.solver import MulticomponentLBM

    f_global = assemble_global_f(results)
    solver = MulticomponentLBM(config)
    if f_global.shape != solver.f.shape:
        raise ValueError(
            f"assembled field shape {f_global.shape} does not match the "
            f"configuration's {solver.f.shape}"
        )
    solver.f[:] = f_global
    solver.update_moments_and_forces()
    return solver
