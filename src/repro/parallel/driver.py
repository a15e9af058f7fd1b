"""The parallel multicomponent LBM driver — Figure 2 of the paper, for real.

Each rank owns an x-slab of the channel — or, under a 2-D
:class:`~repro.parallel.decomposition.CartTopology`, a rectangle of x
planes × cross-section columns — plus ghost cells, and runs, per phase,
one sequence (:meth:`ParallelLBM.step_phase`): collide the boundary
pieces, post the halo exchange of their distribution functions, collide
the interior while the messages fly, wait, stream + bounce back, then
the same split for the moment update around the exchange of the number
densities, and finally forces and velocities.  Every
``REMAPPING_INTERVAL`` phases the ranks plan plane transfers — from
load indices exchanged with their chain neighbours only (1-D windowed
schemes, the paper's protocol) or from one allgather (``global``, and a
2-D grid, which rebalances each axis' bands) — with the planner of
:mod:`repro.core.policies`, and migrate raw population bands along each
decomposed axis (:meth:`ParallelLBM.maybe_remap`).

``halo_overlap`` chooses the piece list, not the code path: overlapped
(the default), the boundary pieces are the one-plane x strips and the
interior is what lies between; blocking, the only piece is the whole
padded slab — every plane is a boundary piece and nothing is left to
hide the transfer behind.  Collision and moments are pointwise and
every backend is piece-independent, so the two are bit-identical and
the choice changes timing only; fault-injection runs force the blocking
list so the ``mid_phase`` fault point fires with no messages in flight.

A ``load_time_fn`` can replace wall-clock measurement as the per-phase
load index, so remapping *behaviour* is testable without real background
jobs (the physics is unaffected — only the remapping decisions see it).
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.conflict import clamp_outflows, clamp_to_owned, flows_to_planes
from repro.core.exchange import speeds_from
from repro.core.history import PhaseTimeHistory
from repro.core.partition import SlicePartition
from repro.core.policies import RemappingConfig, make_policy, window_proposal
from repro.ckpt.manifest import (
    CheckpointError,
    CheckpointRejected,
    Manifest,
    ShardInfo,
    check_fingerprint,
    config_fingerprint,
    tile,
)
from repro.lbm.backends import create_backend
from repro.lbm.equilibrium import rest_equilibrium
from repro.lbm.forces import acceleration_field, solid_mask_field
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
from repro.parallel.decomposition import CartTopology, grid_for
from repro.parallel.halo import HaloExchanger
from repro.parallel.launch import launch_spmd, resolve_transport
from repro.parallel.migration import (
    interior_of,
    pack_band,
    pad_with_ghosts,
    unpack_band,
)
from repro.util.validation import check_integer

#: Load-index hook: (rank, phase, points) -> seconds.
LoadTimeFn = Callable[[int, int, int], float]

#: One edge of a rank's subdomain in a remap round: ``(peer, due, out)``.
#: *due* is the signed band count the netted proposals call for (> 0:
#: this rank sends, < 0: it receives); *out* is what it actually ships
#: once clamped to what it owns (0 <= out <= due when sending, else 0).
Edge = tuple[int | None, int, int]
SIDES = ("low", "high")
#: Decomposed axes of ``f`` as named in trace events.
AXIS_NAMES = {2: "x", 3: "y"}


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
    blocked in halo waits — communication the compute did not hide;
    ``phases`` is the rank's final (absolute) phase counter.  The
    array and per-phase list fields stay out of ``repr()``.  ``f_interior``
    (the rank's slab) is ``None`` once :func:`repro.api.run` has assembled
    its ``f``; :func:`repro.api.execute_parallel` keeps it."""

    rank: int
    plane_start: int
    f_interior: np.ndarray | None = field(repr=False)
    plane_count: int
    plane_history: list[int] = field(repr=False)
    comp_times: list[float] = field(repr=False)
    planes_sent: int
    planes_received: int
    mass: float
    phases: int
    col_start: int = 0
    col_count: int | None = None
    exposed_wait_s: float = 0.0


class ParallelLBM:
    """One rank's share of the parallel multicomponent LBM."""

    def __init__(
        self,
        comm: Communicator,
        config: LBMConfig,
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
        if topo is None:
            topo = CartTopology.from_shape(geo.shape, comm.size, 1)
        if topo.size != comm.size:
            raise ValueError(
                f"topology has {topo.size} subdomains for {comm.size} ranks"
            )
        if topo.total_planes != geo.shape[0]:
            raise ValueError(
                "topology row extents must sum to the global x extent"
            )
        if topo.total_cols != geo.shape[1]:
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
        #: The planner every gathered decision calls — the simulator's
        #: own object (an unknown policy name fails here, not mid-run).
        self._policy = make_policy(policy, self.remap_config)
        self.load_time_fn = load_time_fn
        self.topo = topo
        self.rows = topo.rows
        self.cols = topo.cols
        self.row, self.col = topo.coords(comm.rank)
        #: Axes of ``f`` that carry ghost cells.
        self._padded = (2, 3) if self.cols > 1 else (2,)
        #: Checkpointing (see :mod:`repro.ckpt`): a shared store plus the
        #: interval in phases; 0 disables periodic snapshots.
        self.checkpoint_every = checkpoint_every
        self.checkpoint_store = checkpoint_store
        #: Fault-injection plan (:class:`repro.ckpt.FaultPlan`) shared by
        #: every rank; ``None`` in production.
        self.faults = faults
        #: Overlapped piece list (see the module docstring).  Fault
        #: injection forces the blocking one: the ``mid_phase`` fault
        #: point's contract is that no messages are in flight.
        self._overlap = bool(halo_overlap) and faults is None
        #: Global indices of this rank's first interior plane/column.
        #: Maintained incrementally through migrations (the topology
        #: snapshot is not updated after init) — chain migration keeps
        #: ranks ordered along each axis, so low-edge transfers are the
        #: only thing that moves them.
        self.plane_start = topo.plane_start(self.row)
        self.col_start = topo.col_start(self.col)

        # Rank-scoped observability handle; the shared NULL_OBSERVER when
        # neither an observer nor REPRO_OBS_TRACE is provided.
        obs = resolve_observer(observer)
        if obs.enabled and obs.rank is None:
            obs = obs.child(comm.rank)
        self.observer = obs

        lat = config.lattice
        self.cross = geo.shape[1:]
        self.plane_points = int(np.prod(self.cross))
        #: Lattice points per (plane, first-cross-axis column) line.
        self._line_points = int(np.prod(self.cross[1:]))
        self.halo = HaloExchanger(lat, comm, topo, observer=obs)
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
        # (1, *cross) or the full global shape
        self._solid_src = solid_mask_field(config, src_geo)
        self._accel_src = acceleration_field(config, src_geo)

        self.taus = np.array([c.tau for c in config.components])
        ln = topo.planes(self.row)
        if self.cols > 1:
            lc = topo.cols_of(self.col)
            shape = (ln + 2, lc + 2, *self.cross[1:])
        else:
            shape = (ln + 2, *self.cross)
        self.f = np.zeros(
            (config.n_components, lat.Q, *shape), dtype=np.float64
        )
        self._alloc_state()
        fluid3 = ~self._solid3
        for ci, comp in enumerate(config.components):
            rho0 = np.where(fluid3, comp.rho_init / comp.mass, 0.0)
            rest_equilibrium(rho0, lat, out=self.f[ci])
        # Zero the ghosts in place: the pieces already hold views of f.
        self.f[...] = pad_with_ghosts(self._interior_view(), self._padded)
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
        psi_mask = (~solid3).astype(np.float64)
        self._psi_mask = psi_mask
        spatial = tuple(axis - 2 for axis in self._padded)
        self._collide_mask = pad_with_ghosts(
            interior_of(psi_mask, spatial), spatial
        )
        # Ranks inherit the backend from the shared config; scratch is
        # sized for the local slab, so rebuild after every migration.
        self.backend = create_backend(
            self.config, shape, self._solid3, observer=self.observer
        )
        self._build_pieces(shape)

    def _build_pieces(self, shape: tuple[int, ...]) -> None:
        """The phase schedule's x pieces: boundary pieces (collided
        first, so their data can travel while the interior computes) and
        the interior block between them.  Overlapped, the boundary
        pieces are the one-plane strips, each with its own backend
        instance — kernel scratch is shape-bound; blocking, the one
        boundary piece is the whole padded slab on the rank's own
        backend and there is no interior.  A piece holds stable views of
        ``f`` and the derived fields, its backend's bound operands;
        migration and restore rebind ``f``, then rebuild the pieces."""
        self._mid_piece: tuple | None = None
        if not self._overlap:
            self._edge_pieces = [self._make_piece(slice(None), self.backend)]
            return
        ln = shape[0] - 2
        edges = [slice(1, 2)]
        if ln >= 2:
            edges.append(slice(ln, ln + 1))
        self._edge_pieces = [self._make_piece(sl) for sl in edges]
        if ln > 2:
            self._mid_piece = self._make_piece(slice(2, ln))

    def _make_piece(self, sl: slice, backend=None) -> tuple:
        if backend is None:
            solid = np.ascontiguousarray(self._solid3[sl])
            backend = create_backend(
                self.config, solid.shape, solid, observer=self.observer
            )
        return (
            backend,
            self.f[:, :, sl],
            self._collide_mask[sl],
            self.rho[:, sl],
            self.u_eq[:, :, sl],
            self.mom[:, :, sl],
        )

    # -------------------------------------------------------------- physics
    def _collide_piece(self, piece: tuple) -> None:
        backend, f, mask, rho, u_eq, _ = piece
        backend.collide_bgk(f, rho, u_eq, mask)

    def _moments_piece(self, piece: tuple) -> None:
        # On the piece's own backend: one backend taking every piece's
        # moments would rebind its call list at each piece.
        backend, f, _, rho, _, mom = piece
        backend.moments(f, rho, mom)

    def _moments_and_forces(self, tag: object) -> tuple[float, float]:
        """The second half of a phase — boundary moments, density halo
        posted, interior moments, halo awaited, forces and velocities —
        also rerun after initialisation, migration and restore.  Returns
        the clock reads bracketing the halo wait."""
        for piece in self._edge_pieces:
            self._moments_piece(piece)
        pending = self.halo.begin_scalar(self.rho, tag, "halo_rho")
        if self._mid_piece is not None:
            self._moments_piece(self._mid_piece)
        t_posted = time.perf_counter()
        self.halo.finish(pending)
        t_filled = time.perf_counter()
        self.backend.forces_and_velocities(
            self.rho,
            self.mom,
            self.force,
            self.u_eq,
            accel=self._accel,
            psi_mask=self._psi_mask,
            vel_mask=self._collide_mask,
        )
        return t_posted, t_filled

    def step_phase(self) -> float:
        """One full phase — the only spelling of the sequence; returns
        the load-index sample for this phase.

        The sample is the phase's compute time: everything except the
        wait for the population halo (the density-halo wait is included
        — the load-index composition remapping has always seen).  The
        clocks are always read (seven reads in a multi-millisecond
        phase); tracing only decides whether the ``phase`` event is
        emitted, so the traced path is the untraced one.  ``t_halo_wait``
        in that event is the exposed communication time: seconds this
        phase actually blocked in halo waits after the interior compute
        was used to hide the transfers."""
        halo = self.halo
        bytes0 = dict(halo.bytes)
        wait0 = sum(halo.wait_seconds.values())
        t0 = time.perf_counter()
        for piece in self._edge_pieces:
            self._collide_piece(piece)
        if self.faults is not None:
            # Fault plans force the blocking piece list, so every plane
            # is collided and no message of this phase is posted yet: a
            # job kill here cannot strand a peer in a blocking recv.
            self.faults.fire("mid_phase", rank=self.comm.rank, at=self.phase)
        pending_f = halo.begin_f(self.f, self.phase)
        if self._mid_piece is not None:
            self._collide_piece(self._mid_piece)
        t1 = time.perf_counter()
        halo.finish(pending_f)
        t2 = time.perf_counter()
        self.f = self.backend.stream(self.f)
        self.backend.bounce_back(self.f)
        t3 = time.perf_counter()
        t4, t5 = self._moments_and_forces(self.phase)
        t6 = time.perf_counter()
        if self.observer.enabled:
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
                t_halo_wait=sum(halo.wait_seconds.values()) - wait0,
                halo_f_bytes=halo.bytes["f"] - bytes0["f"],
                halo_rho_bytes=halo.bytes["scalar"] - bytes0["scalar"],
            )

        self.phase += 1
        if self.load_time_fn is not None:
            sample = self.load_time_fn(
                self.comm.rank, self.phase, self.local_planes * self.plane_points
            )
        else:
            sample = max((t1 - t0) + (t6 - t2), 1e-9)
        self.comp_times.append(sample)
        self.history.record(sample)
        return sample

    def _interior_view(self) -> np.ndarray:
        """This rank's ghost-free populations."""
        return interior_of(self.f, self._padded)

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

    # ------------------------------------------------------------ remapping
    def maybe_remap(self) -> None:
        """Run the remapping protocol if this phase sits on the interval
        boundary (call after :meth:`step_phase`): plan the round's
        transfers, migrate along each decomposed axis, refresh the
        derived state."""
        if self.policy_name == "no-remap":
            return
        if self.phase % self.remap_config.interval != 0:
            return
        rnd = self.phase
        traced = self.observer.enabled
        if traced:
            self._emit_remap_state("remap_begin", rnd)
        moved = False
        # Rows before columns: a column package spans the x extent its
        # row has just settled on.
        for axis, edges in self._plan_remap(rnd):
            moved |= self._migrate_axis(rnd, axis, edges)
        if moved:
            # Once per round however many transfers took part, and not
            # at all on a quiet round: rebuilding the fields and kernel
            # scratch every round measurably slows a run and grows it.
            self._alloc_state()
        self._moments_and_forces(("post_remap", rnd))
        if traced:
            self._emit_remap_state("remap_end", rnd)
        self.plane_history.append(self.local_planes)

    def _plan_remap(self, rnd: int) -> list[tuple[int, list[Edge]]]:
        """This round's transfers as ``(axis of f, [low edge, high
        edge])`` per decomposed axis.

        A 1-D chain running a windowed scheme decides the paper's way,
        from neighbour messages only (:func:`neighbour_window_edges`).
        Everything else decides from one allgather: ``global`` needs all
        load indices by definition, and a grid's row must move its planes
        in lock-step across all its columns (and vice versa), which a
        per-rank window cannot guarantee."""
        load_index = self.remap_config.predictor.predict(self.history)
        if self.cols == 1 and self.policy_name in ("filtered", "conservative"):
            edges = neighbour_window_edges(
                self.comm,
                rnd,
                self.local_planes,
                load_index,
                self.plane_points,
                self.policy_name,
                self.remap_config,
            )
            plan = [(2, edges)]
        else:
            gathered = self.comm.allgather(
                (self.local_planes, self.local_cols, load_index),
                ("remap", rnd),
            )
            # Rank order is row-major: (rows, cols) load indices, and a
            # band's extent read off its first member.
            times = np.array([g[2] for g in gathered]).reshape(
                self.rows, self.cols
            )
            planes = [g[0] for g in gathered[:: self.cols]]
            plan = [(2, self._gathered_edges(0, planes, self.plane_points, times))]
            if self.cols > 1:
                bands = [g[1] for g in gathered[: self.cols]]
                column_points = self.config.geometry.shape[0] * self._line_points
                plan.append(
                    (3, self._gathered_edges(1, bands, column_points, times.T))
                )
        if self.observer.enabled:
            self.observer.emit(
                "remap_decision",
                round=rnd,
                policy=self.policy_name,
                load_index=float(load_index),
                points=self.local_planes * self.local_cols * self._line_points,
                # per axis: [due, out] on the low and the high edge
                edges={
                    AXIS_NAMES[axis]: [edge[1:] for edge in edges]
                    for axis, edges in plan
                },
            )
        return plan

    def _gathered_edges(
        self, axis: int, counts: list[int], band_points: int, times: np.ndarray
    ) -> list[Edge]:
        """This rank's two edges along grid axis *axis* (0: rows, 1:
        columns) from the gathered band extents *counts* and the
        ``(bands, ranks per band)`` load indices *times*.  Every rank
        evaluates the same :mod:`repro.core.policies` planner on the same
        numbers, so all agree without a further message."""
        partition = SlicePartition(counts, band_points)
        # A band's load index is the mean over the ranks in it.
        band_times = np.array([float(np.mean(band)) for band in times])
        flows = self._policy.decide(partition, band_times)
        # No-op after a windowed decide, which ends with this clamp; it
        # cuts the relayed through-traffic ``global`` may plan — which a
        # send-first executor cannot ship — to what each band owns now.
        flows = clamp_to_owned(flows, partition)
        mine = (self.row, self.col)[axis]
        low = -int(flows[mine - 1]) if mine > 0 else 0
        high = int(flows[mine]) if mine < len(flows) else 0
        rank = self.comm.rank
        return [
            (self.topo.neighbour(rank, axis, -1), low, max(low, 0)),
            (self.topo.neighbour(rank, axis, +1), high, max(high, 0)),
        ]

    def _migrate_axis(self, rnd: int, axis: int, edges: list[Edge]) -> bool:
        """Ship and receive this round's bands along one decomposed axis
        of ``f`` (2: x planes, 3: cross-section columns); returns whether
        this rank's subdomain changed.

        All sends go out before any receive, so no rank waits on a chain
        of relays.  A sender whose clamp cut a due transfer to nothing
        still sends ``None``: under the neighbour-only protocol the
        receiver cannot know the sender's clamp and would wait in vain."""
        comm = self.comm
        moved = False
        for side, (peer, due, out) in zip(SIDES, edges):
            if due <= 0:
                continue
            package = None
            if out > 0:
                package, self.f = pack_band(
                    self.f, axis, side, out, self._padded
                )
                self._account_transfer(rnd, axis, side, "send", package)
                moved = True
            comm.send(peer, ("migrate", rnd, axis, side), package)
        for side, other, (peer, due, _) in zip(SIDES, SIDES[::-1], edges):
            if due >= 0:
                continue
            package = comm.recv(peer, ("migrate", rnd, axis, other))
            if package is not None:
                self.f = unpack_band(
                    self.f, package, axis, side, self._padded
                )
                self._account_transfer(rnd, axis, side, "recv", package)
                moved = True
        return moved

    def _account_transfer(
        self, rnd: int, axis: int, side: str, action: str, package: np.ndarray
    ) -> None:
        """Ownership bookkeeping for one packed/unpacked package, done on
        the spot because reallocation re-slices an x-varying scenario's
        geometry from ``plane_start``/``col_start``."""
        bands = int(package.shape[axis])
        if side == "low":
            # Chain migration keeps ranks ordered along each axis, so
            # low-edge transfers are the only thing that moves an origin.
            shift = bands if action == "send" else -bands
            if axis == 2:
                self.plane_start += shift
            else:
                self.col_start += shift
        if axis == 2:
            if action == "send":
                self.planes_sent += bands
            else:
                self.planes_received += bands
        if self.observer.enabled:
            self.observer.emit(
                "migrate",
                round=rnd,
                action=action,
                axis=AXIS_NAMES[axis],
                direction=side,
                planes=bands,
                bytes=int(package.nbytes),
            )
            self.observer.counter("migration.planes").add(bands)
            if action == "send":
                self.observer.counter("migration.bytes").add(package.nbytes)

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
        col_start: int,
        tag: object,
    ) -> None:
        """Replace this rank's subdomain with *f_interior* (no ghosts)
        starting at global plane *plane_start* and column *col_start*,
        then refresh all derived state — the same sequence a migration
        uses, so the next phase continues bit-identically."""
        self.f = pad_with_ghosts(f_interior, self._padded)
        self.plane_start = int(plane_start)
        self.col_start = int(col_start)
        self._alloc_state()
        self._moments_and_forces(tag)

    def restore_checkpoint(self, manifest: Manifest | None = None) -> Manifest:
        """Collective restore from the store's latest good generation (or
        an explicit *manifest*).

        When the generation's shards form this run's ``rows × cols``
        grid, each rank re-adopts its own shard: ownership, remap history
        and counters resume exactly where they were.  Otherwise the
        field is reassembled and each rank cuts its rectangle of this
        run's topology from it; the physics is unchanged (decomposition
        invariance), only the remapping bookkeeping restarts (see
        :meth:`repro.ckpt.CheckpointStore.load_rectangle`).
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
        rank = self.comm.rank
        with self.observer.span("ckpt.restore", step=manifest.step):
            arrays, plane_start, col_start = store.load_rectangle(
                manifest, self.rows, self.cols, rank, self.topo.rectangle(rank)
            )
            self._adopt_interior(
                arrays["f"], plane_start, col_start, ("restore", manifest.step)
            )
            self.planes_sent = int(arrays.get("planes_sent", 0))
            self.planes_received = int(arrays.get("planes_received", 0))
            self.plane_history = [
                int(n) for n in arrays.get("plane_history", [self.local_planes])
            ]
            self.history.clear()
            for sample in arrays.get("history", ()):
                self.history.record(float(sample))
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
        exposed = sum(self.halo.wait_seconds.values())
        if self.observer.enabled:
            self.observer.emit(
                "run_end",
                phases=self.phase,
                planes=self.local_planes,
                planes_sent=self.planes_sent,
                planes_received=self.planes_received,
                halo_f_bytes=self.halo.bytes["f"],
                halo_rho_bytes=self.halo.bytes["scalar"],
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
            phases=self.phase,
            col_start=self.col_start,
            col_count=self.local_cols if self.cols > 1 else None,
            exposed_wait_s=exposed,
        )


def neighbour_window_edges(
    comm: Communicator,
    rnd: int,
    planes: int,
    load_index: float,
    band_points: int,
    policy: str,
    config: RemappingConfig,
) -> list[Edge]:
    """One rank's share of the paper's neighbour-only remap decision on
    a 1-D chain: its low and high :data:`Edge`.

    Two message rounds with rank ± 1 and nothing else — load indices,
    then proposals — and each rank evaluates its own slice of exactly
    the pipeline ``_LocalWindowPolicy.decide`` runs on global arrays:
    :func:`~repro.core.policies.window_proposal` on its three-node
    window, per-edge netting (both endpoints net the same two proposals,
    so they agree on what is due without a further message), whole
    planes, and the clamp to what it owns.  Needs only a communicator,
    so the parity test runs it on bare threads."""
    rank = comm.rank
    peers = (
        rank - 1 if rank > 0 else None,
        rank + 1 if rank < comm.size - 1 else None,
    )
    mine = (planes * band_points, load_index)
    infos = comm.exchange_with_neighbours(mine, mine, ("loadidx", rnd))
    window = [info for info in (infos[0], mine, infos[1]) if info is not None]
    me = 0 if infos[0] is None else 1
    counts = np.array([info[0] for info in window], dtype=np.float64)
    speeds = speeds_from(counts, [info[1] for info in window])
    threshold = config.threshold_points_for(band_points)
    give = [
        0.0
        if peer is None
        else window_proposal(
            counts,
            speeds,
            me,
            me + step,
            config,
            threshold,
            filtered=policy == "filtered",
        )
        for peer, step in zip(peers, (-1, +1))
    ]
    theirs = comm.exchange_with_neighbours(give[0], give[1], ("proposal", rnd))
    net = [g - (t or 0.0) for g, t in zip(give, theirs)]
    due = [int(d) for d in flows_to_planes(net, band_points)]
    outs = clamp_outflows(max(due[0], 0), max(due[1], 0), planes - 1)
    return list(zip(peers, due, outs))


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
    """Map a RunSpec's ``decomp`` knob (validated by ``RunSpec``) to
    concrete ``(rows, cols)`` grid dimensions: ``"auto"``/``"slab"``
    keep the 1-D slab, ``"grid"`` picks the most-square factorization
    that fits the domain, an explicit tuple is the grid."""
    if decomp == "grid":
        return grid_for(n_ranks, shape)
    if isinstance(decomp, str):
        return (n_ranks, 1)
    return decomp


def _run_parallel(spec: Any, store: Any) -> list[ParallelRunResult]:
    """Execute a parallel RunSpec (the engine behind
    :func:`repro.api.run`; *store* is its resolved checkpoint store)."""
    config: LBMConfig = spec.config
    if config.adhesion is not None:
        raise ValueError("the parallel driver does not apply wall adhesion")
    n_ranks = spec.ranks
    shape = config.geometry.shape
    transport = resolve_transport(spec.transport)
    rows, cols = resolve_decomp(spec.decomp, shape, n_ranks)
    topo = CartTopology.from_shape(shape, rows, cols)

    resume_manifest = None
    phases_to_run = spec.phases
    if spec.resume:
        if store is None:
            raise ValueError("resume=True needs a checkpoint_store")
        resume_manifest = store.latest_good()
        if resume_manifest is not None:
            check_fingerprint(resume_manifest, config)
            phases_to_run = max(0, spec.phases - resume_manifest.step)

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
            phases=spec.phases,
            initial_counts=topo.row_counts(),
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
            topo=topo,
            policy=spec.policy,
            remap_config=spec.remap_config,
            load_time_fn=spec.load_time_fn,
            observer=rank_obs,
            checkpoint_every=spec.checkpoint_every,
            checkpoint_store=store,
            faults=spec.faults,
            halo_overlap=spec.halo_overlap,
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


def assemble_global_f(results: list[ParallelRunResult]) -> np.ndarray:
    """Reassemble per-rank interiors into the global population array
    ``(C, Q, nx, *cross)`` from each rank's final ownership rectangle,
    verified to tile the domain exactly (:func:`repro.ckpt.manifest.tile`;
    ``ValueError`` otherwise).  Results carry no domain shape: it is as
    far as their rectangles and blocks reach."""
    blocks = [r.f_interior for r in results if r.f_interior is not None]
    if len(blocks) != len(results):
        raise ValueError("rank records without slabs (an api.run result's f is assembled)")
    spatial = (
        max(r.plane_start + r.plane_count for r in results),
        max(r.col_start + b.shape[3] for r, b in zip(results, blocks)),
        *blocks[0].shape[4:],
    )
    f = tile(
        spatial,
        [(r.plane_start, r.plane_count, r.col_start, r.col_count) for r in results],
        blocks,
    )
    assert f is not None  # blocks were given
    return f

