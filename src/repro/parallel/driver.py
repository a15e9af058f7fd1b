"""The parallel multicomponent LBM driver — Figure 2 of the paper, for real.

Each rank owns an x-slab of the channel — a contiguous run of planes,
the paper's 1-D decomposition, whose ownership is a
:class:`~repro.core.partition.SlicePartition` like everywhere else in
the repository — plus one ghost plane on each side, and runs, per phase,
one sequence (:meth:`ParallelLBM.step_phase`): collide the boundary
pieces, post the halo exchange of their distribution functions, collide
the interior while the messages fly, wait, stream + bounce back, then
the same split for the moment update around the exchange of the number
densities, and finally forces and velocities.  Every
``REMAPPING_INTERVAL`` phases the ranks plan plane transfers — from
load indices exchanged with their chain neighbours only (the windowed
schemes, the paper's protocol) or from one allgather (``global``) —
with the planner of :mod:`repro.core.policies`, and migrate raw
population planes to their chain neighbours
(:meth:`ParallelLBM.maybe_remap`).

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
from collections.abc import Callable, Sequence
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
from repro.lbm.loop import NumericalInstability, StepLoop, health_verdict
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
from repro.parallel.halo import HaloExchanger
from repro.parallel.launch import launch_spmd, resolve_transport
from repro.parallel.migration import (
    interior_of,
    pack_band,
    pad_with_ghosts,
    unpack_band,
)

#: Load-index hook: (rank, phase, points) -> seconds.
LoadTimeFn = Callable[[int, int, int], float]

#: One edge of a rank's slab in a remap round: ``(peer, due, out)``.
#: *due* is the signed plane count the netted proposals call for (> 0:
#: this rank sends, < 0: it receives); *out* is what it actually ships
#: once clamped to what it owns (0 <= out <= due when sending, else 0).
Edge = tuple[int | None, int, int]
SIDES = ("low", "high")


@dataclass
class ParallelRunResult:
    """What one rank reports back after a run.

    ``plane_start``/``plane_count``: the rank's final slice of the x
    axis, so reassembly never assumes rank order is x order
    (:func:`assemble_global_f` verifies it).  ``exposed_wait_s``: time
    blocked in halo waits the compute did not hide.  ``phases``: the
    final absolute phase.  ``f_interior`` (the slab) is ``None`` once
    :func:`repro.api.run` assembled its ``f``."""

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
    exposed_wait_s: float = 0.0
    #: The verdict on a diverged run, the same on every rank (it is
    #: voted); :func:`repro.api.run` raises it in the caller.
    instability: NumericalInstability | None = None


class ParallelLBM:
    """One rank's share of the parallel multicomponent LBM.

    *plane_counts* is the initial layout — planes per rank, in rank
    order along x; ``None`` is the even split
    (:meth:`~repro.core.partition.SlicePartition.even`)."""

    def __init__(
        self,
        comm: Communicator,
        config: LBMConfig,
        *,
        plane_counts: Sequence[int] | None = None,
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
        self.cross = geo.shape[1:]
        self.plane_points = int(np.prod(self.cross))
        layout = (
            SlicePartition.even(geo.shape[0], comm.size, self.plane_points)
            if plane_counts is None
            else SlicePartition(plane_counts, self.plane_points)
        )
        if layout.n_nodes != comm.size:
            raise ValueError(
                f"plane_counts lays out {layout.n_nodes} subdomains for "
                f"{comm.size} ranks"
            )
        if layout.total_planes != geo.shape[0]:
            raise ValueError("plane_counts must sum to the global x extent")
        self.comm = comm
        self.config = config
        self.policy_name = policy
        self.remap_config = remap_config or RemappingConfig()
        #: The planner every gathered decision calls — the simulator's
        #: own object (an unknown policy name fails here, not mid-run).
        self._policy = make_policy(policy, self.remap_config)
        self.load_time_fn = load_time_fn
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
        #: Global index of this rank's first interior plane, maintained
        #: through migrations (see :meth:`_account_transfer`).
        self.plane_start = int(layout.plane_counts()[: comm.rank].sum())

        # Rank-scoped observability handle; the shared NULL_OBSERVER when
        # neither an observer nor REPRO_OBS_TRACE is provided.
        obs = resolve_observer(observer)
        if obs.enabled and obs.rank is None:
            obs = obs.child(comm.rank)
        self.observer = obs

        lat = config.lattice
        self.halo = HaloExchanger(lat, comm, observer=obs)
        self.history = PhaseTimeHistory(self.remap_config.history)

        # Geometry/force provider.  x-invariant configurations (the
        # paper's setup: walls along the cross axes, periodic x) share a
        # single cross-section pattern, broadcast along x; an x-varying
        # scenario gets the full global fields, assembled in exactly the
        # sequential solver's order and sliced (with periodic wrap) to
        # each rank's current slab by ``_local_patterns``.
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

        ln = layout.planes(comm.rank)
        self.f = np.zeros(
            (config.n_components, lat.Q, ln + 2, *self.cross), dtype=np.float64
        )
        self._alloc_state()
        fluid3 = ~self._solid3
        for ci, comp in enumerate(config.components):
            rho0 = np.where(fluid3, comp.rho_init / comp.mass, 0.0)
            rest_equilibrium(rho0, lat, out=self.f[ci])
        # Zero the ghosts in place: the pieces already hold views of f.
        self.f[:, :, [0, -1]] = 0.0
        self.phase = 0
        self.planes_sent = 0
        self.planes_received = 0
        self.plane_history: list[int] = [ln]
        self.comp_times: list[float] = []
        self._loop = StepLoop()
        self._moments_and_forces(("init", 0))

    # ----------------------------------------------------------- state mgmt
    @property
    def local_planes(self) -> int:
        return self.f.shape[2] - 2

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
        this rank's current slab: slices of the provider arrays with
        periodic wrap along x, or broadcast along x when the
        configuration is x-invariant."""
        solid = self._solid_src
        accel = self._accel_src
        if not self._x_invariant:
            solid = self._wrap_take(solid, 0, self.plane_start - 1, shape[0])
            accel = self._wrap_take(accel, 2, self.plane_start - 1, shape[0])
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
        self._solid3, self._accel = self._local_patterns(shape)
        # Interior-only collide mask (ghosts excluded); psi keeps the
        # fluid pattern on ghosts (their densities are real neighbour
        # data needed by the S-C force).
        self._psi_mask = (~self._solid3).astype(np.float64)
        self._collide_mask = self._psi_mask.copy()
        self._collide_mask[[0, -1]] = 0.0
        # Ranks inherit the backend from the shared config; scratch is
        # sized for the local slab, so rebuild after every migration.
        # Thread ranks share one GIL: wide column blocks (fused, item 5).
        self.backend = create_backend(
            self.config, shape, self._solid3, observer=self.observer,
            shares_interpreter=self.comm.shares_interpreter,
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
                self.config, solid.shape, solid, observer=self.observer,
                shares_interpreter=self.comm.shares_interpreter,
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

    def _interior_invariants(self) -> tuple[list[float], list[list[float]]]:
        """Per-component interior mass and momentum — the conserved
        quantities migration must not create or destroy (trace payload
        for ``remap_begin``/``remap_end`` events)."""
        interior = interior_of(self.f)
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
        transfers, migrate planes, refresh the derived state."""
        if self.policy_name == "no-remap":
            return
        if self.phase % self.remap_config.interval != 0:
            return
        rnd = self.phase
        traced = self.observer.enabled
        if traced:
            self._emit_remap_state("remap_begin", rnd)
        if self._migrate(rnd, self._plan_remap(rnd)):
            # Once per round however many transfers took part, and not
            # at all on a quiet round: rebuilding the fields and kernel
            # scratch every round measurably slows a run and grows it.
            self._alloc_state()
        self._moments_and_forces(("post_remap", rnd))
        if traced:
            self._emit_remap_state("remap_end", rnd)
        self.plane_history.append(self.local_planes)

    def _plan_remap(self, rnd: int) -> list[Edge]:
        """This round's transfers: ``[low edge, high edge]``.

        The windowed schemes decide the paper's way, from neighbour
        messages only (:func:`neighbour_window_edges`); ``global`` needs
        every load index by definition and decides from one allgather."""
        load_index = self.remap_config.predictor.predict(self.history)
        if self.policy_name in ("filtered", "conservative"):
            edges = neighbour_window_edges(
                self.comm,
                rnd,
                self.local_planes,
                load_index,
                self.plane_points,
                self.policy_name,
                self.remap_config,
            )
        else:
            gathered = self.comm.allgather(
                (self.local_planes, load_index), ("remap", rnd)
            )
            edges = self._gathered_edges(
                [g[0] for g in gathered], np.array([g[1] for g in gathered])
            )
        if self.observer.enabled:
            self.observer.emit(
                "remap_decision",
                round=rnd,
                policy=self.policy_name,
                load_index=float(load_index),
                points=self.local_planes * self.plane_points,
                # [due, out] on the low and the high edge
                edges=[edge[1:] for edge in edges],
            )
        return edges

    def _gathered_edges(self, counts: list[int], times: np.ndarray) -> list[Edge]:
        """This rank's two edges from the gathered plane counts and load
        indices.  Every rank evaluates the same :mod:`repro.core.policies`
        planner on the same numbers, so all agree without a further
        message."""
        partition = SlicePartition(counts, self.plane_points)
        flows = self._policy.decide(partition, times)
        # Cuts the relayed through-traffic ``global`` may plan — which a
        # send-first executor cannot ship — to what each slab owns now.
        flows = clamp_to_owned(flows, partition)
        rank = self.comm.rank
        low = -int(flows[rank - 1]) if rank > 0 else 0
        high = int(flows[rank]) if rank < len(flows) else 0
        low_peer, high_peer = chain_peers(rank, self.comm.size)
        return [(low_peer, low, max(low, 0)), (high_peer, high, max(high, 0))]

    def _migrate(self, rnd: int, edges: list[Edge]) -> bool:
        """Ship and receive this round's planes; returns whether this
        rank's slab changed.

        All sends go out before any receive, so no rank waits on a chain
        of relays.  A sender whose clamp cut a due transfer to nothing
        still sends ``None``: under the neighbour-only protocol the
        receiver cannot know the sender's clamp and would wait in vain."""
        comm = self.comm
        samples = self._loop.samples  # the residual's: they travel with their planes
        moved = False
        for side, (peer, due, out) in zip(SIDES, edges):
            if due <= 0:
                continue
            package = None
            if out > 0:
                package, self.f = pack_band(self.f, side, out)
                self._account_transfer(rnd, side, "send", package)
                moved = True
                if samples:
                    cut = out if side == "low" else samples[None].shape[1] - out
                    low, high = samples[None][:, :cut], samples[None][:, cut:]
                    band, samples[None] = (low, high) if side == "low" else (high, low)
                    package = (package, np.ascontiguousarray(band))
            comm.send(peer, ("migrate", rnd, side), package)
        for side, other, (peer, due, _) in zip(SIDES, SIDES[::-1], edges):
            if due >= 0:
                continue
            package = comm.recv(peer, ("migrate", rnd, other))
            if package is not None:
                if samples:
                    package, band = package
                    parts = [band, samples[None]][:: 1 if side == "low" else -1]
                    samples[None] = np.concatenate(parts, axis=1)
                self.f = unpack_band(self.f, package, side)
                self._account_transfer(rnd, side, "recv", package)
                moved = True
        return moved

    def _account_transfer(
        self, rnd: int, side: str, action: str, package: np.ndarray
    ) -> None:
        """Ownership bookkeeping for one packed/unpacked package, done on
        the spot because reallocation re-slices an x-varying scenario's
        geometry from ``plane_start``."""
        planes = int(package.shape[2])
        if side == "low":
            # Chain migration keeps ranks ordered along x, so low-edge
            # transfers are the only thing that moves the origin.
            self.plane_start += planes if action == "send" else -planes
        if action == "send":
            self.planes_sent += planes
        else:
            self.planes_received += planes
        if self.observer.enabled:
            self.observer.emit(
                "migrate",
                round=rnd,
                action=action,
                direction=side,
                planes=planes,
                bytes=int(package.nbytes),
            )
            self.observer.counter("migration.planes").add(planes)
            if action == "send":
                self.observer.counter("migration.bytes").add(package.nbytes)

    # ---------------------------------------------------------- checkpoints
    def _shard_arrays(self) -> dict[str, np.ndarray]:
        return {
            "f": np.ascontiguousarray(interior_of(self.f)),
            "step": np.asarray(self.phase, dtype=np.int64),
            "planes_sent": np.asarray(self.planes_sent, dtype=np.int64),
            "planes_received": np.asarray(self.planes_received, dtype=np.int64),
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
        _, rows = self._probe()
        verdict = health_verdict(*rows[None], interior_of(self.f))
        verdicts = comm.allgather(verdict, ("ckpt_health", step))
        bad = [f"rank {r}: {v} at phase {step}" for r, v in enumerate(verdicts) if v]
        if bad:
            raise CheckpointRejected("; ".join(bad))
        with self.observer.span("ckpt.save", step=step):
            shard = store.write_shard(
                step,
                comm.rank,
                self._shard_arrays(),
                plane_start=self.plane_start,
                plane_count=self.local_planes,
            )
            infos = comm.allgather(shard.to_json(), ("ckpt_shards", step))
            if comm.rank == 0:
                store.commit(
                    step,
                    config_fingerprint(self.config),
                    [ShardInfo.from_json(doc, step) for doc in infos],
                )

    def _adopt_interior(
        self, f_interior: np.ndarray, plane_start: int, tag: object
    ) -> None:
        """Replace this rank's slab with *f_interior* (no ghosts)
        starting at global plane *plane_start*, then refresh all derived
        state — the same sequence a migration uses, so the next phase
        continues bit-identically."""
        self.f = pad_with_ghosts(f_interior)
        self.plane_start = int(plane_start)
        self._alloc_state()
        self._moments_and_forces(tag)

    def restore_checkpoint(self, manifest: Manifest | None = None) -> Manifest:
        """Collective restore from the store's latest good generation (or
        an explicit *manifest*).

        When the generation has one shard per rank, each rank re-adopts
        its own shard: ownership, remap history and counters resume
        exactly where they were.  Otherwise the field is reassembled and
        each rank cuts its current slab from it; the physics is unchanged
        (decomposition invariance), only the remapping bookkeeping
        restarts (see :meth:`repro.ckpt.CheckpointStore.load_slab`).
        """
        store = self.checkpoint_store
        if store is None:
            raise CheckpointError("this driver has no checkpoint_store")
        if manifest is None:
            manifest = store.latest_good()
            if manifest is None:
                raise CheckpointError(f"no restorable generation under {store.root}")
        check_fingerprint(manifest, self.config)
        with self.observer.span("ckpt.restore", step=manifest.step):
            arrays, plane_start = store.load_slab(
                manifest, self.comm.size, self.comm.rank, (self.plane_start, self.local_planes)
            )
            self._adopt_interior(arrays["f"], plane_start, ("restore", manifest.step))
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
    def _advance(self) -> int:
        """One phase and its hooks: fault point and remap."""
        if self.faults is not None:
            self.faults.fire("phase_start", rank=self.comm.rank, at=self.phase)
        self.step_phase()
        self.maybe_remap()
        return self.phase

    def _probe(self) -> tuple[np.ndarray, dict]:
        """The interior's mixture velocity and its fluid mask."""
        u = mixture_velocity(self.rho, self.mom, self.force)[:, 1:-1]
        return u, {None: (u, self._collide_mask[1:-1] > 0.0)}

    def _vote(self, at: int, local: dict) -> dict:
        """One allgather: the first unhealthy rank's verdict and the
        largest residual (``None`` while a rank has no sample yet)."""
        votes = self.comm.allgather(local[None], ("check", at))
        bad = [(v, rank) for rank, (v, _, _) in enumerate(votes) if v] or [(None, None)]
        residuals = [res for _, _, res in votes]
        return {None: (*bad[0], None if None in residuals else max(residuals))}

    def run(self, phases: int, *, check_every: int = 0, tol: float = 0.0) -> ParallelRunResult:
        """Run up to *phases* phases through the one step loop
        (:class:`~repro.lbm.loop.StepLoop`), the ranks voting on each
        check.  A diverged run does not raise here: every rank returns
        the same :attr:`ParallelRunResult.instability`."""
        self._loop = StepLoop(check_every, tol)
        save = None if self.checkpoint_store is None else self._write_checkpoint
        instability = None
        try:
            self._loop.run(
                phases, self.phase, self._advance, self._probe, reduce=self._vote,
                checkpoint_every=self.checkpoint_every, save=save,
            )
        except NumericalInstability as exc:
            instability = exc.with_traceback(None)  # its frames hold this rank
        interior = np.ascontiguousarray(interior_of(self.f))
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
            mass=float(sum(c.mass * f.sum() for c, f in zip(self.config.components, interior))),
            phases=self.phase,
            exposed_wait_s=exposed,
            instability=instability,
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
    peers = chain_peers(rank, comm.size)
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


def chain_peers(rank: int, size: int) -> tuple[int | None, int | None]:
    """*rank*'s low and high neighbour on the linear remapping chain
    (``None`` past either end; the halo ring wraps, the chain does not)."""
    return (rank - 1 if rank > 0 else None, rank + 1 if rank < size - 1 else None)


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


def _run_parallel(spec: Any, store: Any) -> list[ParallelRunResult]:
    """Execute a parallel RunSpec (the engine behind
    :func:`repro.api.run`; *store* is its resolved checkpoint store)."""
    config: LBMConfig = spec.config
    if config.adhesion is not None:
        raise ValueError("the parallel driver does not apply wall adhesion")
    n_ranks = spec.ranks
    geo = config.geometry
    transport = resolve_transport(spec.transport)
    # The even slab split; more ranks than planes fails here, before launch.
    plane_counts = SlicePartition.even(
        geo.shape[0], n_ranks, int(np.prod(geo.shape[1:]))
    ).plane_counts().tolist()

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
            shape=list(geo.shape),
            n_components=config.n_components,
            phases=spec.phases,
            initial_counts=plane_counts,
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
            plane_counts=plane_counts,
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
        result = driver.run(phases_to_run, check_every=spec.check_every, tol=spec.tol)
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
        failed = results[0].instability
        if failed is not None:
            del raw, results  # the traceback keeps this frame: not the slabs
            raise failed
        return results
    finally:
        if owns_observer:
            obs.close()


def assemble_global_f(results: list[ParallelRunResult]) -> np.ndarray:
    """Reassemble per-rank interiors into the global population array
    ``(C, Q, nx, *cross)`` from each rank's final slab, verified to tile
    the x axis exactly (:func:`repro.ckpt.manifest.tile`; ``ValueError``
    otherwise).  Results carry no domain shape: it is as far as their
    slabs reach, with the cross-section of their blocks."""
    blocks = [r.f_interior for r in results if r.f_interior is not None]
    if len(blocks) != len(results):
        raise ValueError("rank records without slabs (an api.run result's f is assembled)")
    spatial = (
        max(r.plane_start + r.plane_count for r in results),
        *blocks[0].shape[3:],
    )
    f = tile(spatial, [(r.plane_start, r.plane_count) for r in results], blocks)
    assert f is not None  # blocks were given
    return f
