"""The one step loop of the solver, the batched ensemble and the
parallel driver: cadences (on the absolute step), stop rule, health rule.

Every ``checkpoint_every`` steps it saves; every ``check_every`` steps
it health-checks each *row* (an ensemble member, else the run, labelled
``None``), and with ``tol > 0`` stops a row whose residual — the largest
change of any velocity component at any node since its previous check —
is below ``tol``.  The last phase is always health-checked; an unhealthy
row raises :class:`NumericalInstability`.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np

from repro.util.validation import check_integer

MAX_VELOCITY = 0.4  # lattice units; the sound speed is 1/sqrt(3)


class NumericalInstability(FloatingPointError):
    """A run left the stable regime; names the phase and, where known,
    the rank, the ensemble member and the spec fingerprint."""

    def __init__(self, reason, phase, rank=None, member=None, fingerprint=None):
        super().__init__(reason)
        self.reason, self.phase, self.rank = reason, phase, rank
        self.member, self.fingerprint = member, fingerprint

    def __reduce__(self):  # crosses process boundaries with its fields
        return type(self), (self.reason, self.phase, self.rank, self.member, self.fingerprint)

    def __str__(self) -> str:
        where = [f"phase {self.phase}"]
        where += [f"{k} {getattr(self, k)}" for k in ("rank", "member")
                  if getattr(self, k) is not None]
        if self.fingerprint is not None:
            where.append(f"spec {self.fingerprint[:12]}")
        return f"{self.reason} at {', '.join(where)}"


def check_stop_rule(check_every: int, tol: float) -> None:
    check_integer(check_every, "check_every", minimum=0)
    if not tol >= 0.0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    if tol and not check_every:
        raise ValueError("tol > 0 needs a check cadence (check_every > 0)")


def health_verdict(u: np.ndarray, fluid: np.ndarray, f=None) -> str | None:
    """Why a state is unhealthy, or ``None``: a non-finite or too fast
    velocity *u* ``(D, *S)`` on a *fluid* node (a solid node's velocity
    means nothing), or, given *f*, non-finite populations anywhere."""
    if f is not None and not np.isfinite(f).all():
        return "non-finite populations"
    umax = float(np.abs(u[:, fluid]).max()) if fluid.any() else 0.0
    if not np.isfinite(umax):
        return "non-finite velocity"
    if umax > MAX_VELOCITY:
        return f"velocity {umax:.3f} exceeds stability bound {MAX_VELOCITY}"
    return None


class StepLoop:
    """One run's cadences, stop rule and health rule."""

    def __init__(self, check_every: int = 0, tol: float = 0.0):
        check_stop_rule(check_every, tol)
        self.check_every, self.tol = check_every, tol
        #: Each row's velocity at its previous check (with ``tol > 0``);
        #: the parallel driver migrates planes of it with the populations.
        self.samples: dict = {}
        self.residuals: dict = {}  # each row's latest

    def run(
        self,
        n_steps: int,
        start: int,
        advance: Callable[[], int],
        probe: Callable[[], tuple[Any, dict]],
        *,
        reduce: Callable[[int, dict], dict] | None = None,
        retire: Callable[[list, Any], None] | None = None,
        checkpoint_every: int = 0,
        save: Callable[[], None] | None = None,
    ) -> Any:
        """Advance up to *n_steps* phases from absolute step *start*;
        returns the final velocity (``None`` if every row retired).
        ``advance()`` runs a phase and its hooks and returns the step;
        ``probe()`` returns ``(u, {row: (u_row, fluid)})``.  The
        callbacks are not kept: a caller holding its loop is no cycle."""
        check_integer(n_steps, "n_steps", minimum=0)
        check_integer(checkpoint_every, "checkpoint_every", minimum=0)
        if checkpoint_every and save is None:
            raise ValueError("checkpoint_every > 0 needs a checkpoint_store")
        at, u = start, None
        for _ in range(n_steps):
            at, u = advance(), None
            if checkpoint_every and at % checkpoint_every == 0:
                save()
            if self.check_every and at % self.check_every == 0:
                u, live = self._check(at, probe, reduce, retire, cadence=True)
                if not live:
                    return u
        if u is None:
            u, _ = self._check(at, probe, reduce, None, cadence=False)
        return u

    def _check(self, at, probe, reduce, retire, *, cadence: bool):
        """Probe, vote, raise on an unhealthy row, retire converged ones;
        returns the velocity (``None`` once a retire repacked the state)
        and whether any row goes on."""
        u, rows = probe()
        votes = {}  # label -> (verdict, rank, residual)
        for label, (u_row, fluid) in rows.items():
            residual = None
            if cadence and self.tol:
                prev = self.samples.get(label)
                if prev is not None:
                    residual = float(np.max(np.abs(u_row - prev)))
                self.samples[label] = u_row
            votes[label] = (health_verdict(u_row, fluid), None, residual)
        if reduce is not None:
            votes = reduce(at, votes)
        done = []
        for label, (verdict, rank, residual) in votes.items():
            if verdict is not None:
                raise NumericalInstability(verdict, at, rank=rank, member=label)
            if residual is not None:
                self.residuals[label] = residual
                if residual < self.tol:
                    done.append(label)
                    del self.samples[label]
        if done and retire is not None:
            retire(done, u)
            u = None
        return u, len(done) < len(votes)
