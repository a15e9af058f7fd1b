"""The capability table of docs/SIMULATOR.md, executed.

Every physics option the simulator has, against the five surfaces a run
can take: the two kernel backends, the batch axis (``run_batch`` /
``EnsembleSpec``), the parallel driver (``ranks > 1``) and serve.  A
"yes" cell runs, and on batch, driver and serve returns the bits of the
sequential ``run()``; a "no" cell asserts what the code does today.  The
table in the docs is parsed and must list exactly the "no" cells below.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.api import EnsembleRunResult, RunSpec, execute_parallel, run, run_batch
from repro.lbm.components import ComponentSpec
from repro.lbm.ensemble import EnsembleSpec, MemberParams
from repro.lbm.forces import WallForceSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9, D3Q19
from repro.lbm.solver import LBMConfig
from repro.scenarios import HomogeneousScenario, PatternedScenario, RoughScenario
from repro.serve import serve_many

DOC = Path(__file__).resolve().parent.parent / "docs" / "SIMULATOR.md"
PHASES = 4
SURFACES = ("reference", "fused", "batch", "driver", "serve")


def config(lattice=D2Q9, **physics) -> LBMConfig:
    geometry = ChannelGeometry(
        shape=(16, 12) if lattice is D2Q9 else (12, 8, 8)
    )
    return LBMConfig(
        geometry=geometry,
        components=(
            ComponentSpec("water", tau=1.0, rho_init=1.0),
            ComponentSpec("air", tau=1.0, rho_init=0.03),
        ),
        g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
        lattice=lattice,
        backend=physics.pop("backend", "fused"),
        **physics,
    )


#: One configuration per table row.
OPTIONS = {
    "D2Q9": config(D2Q9),
    "D3Q19": config(D3Q19),
    "wall_force": config(wall_force=WallForceSpec(0.05, 2.5)),
    "scenario=homogeneous": config(
        scenario=HomogeneousScenario(amplitude=0.05, decay_length=2.5)
    ),
    "scenario=rough": config(
        D3Q19,
        scenario=RoughScenario(
            amplitude=0.05, decay_length=2.5, rms=1.0, max_height=2, seed=7
        ),
    ),
    "scenario=patterned": config(
        scenario=PatternedScenario(
            amplitude_hi=0.06, amplitude_lo=0.01, period=8, duty=0.5
        )
    ),
    "adhesion": config(adhesion=(0.1, -0.1)),
    "body_acceleration": config(body_acceleration=(1e-6, 0.0)),
    "backend=reference": config(backend="reference"),
}

#: The "no" cells; every other (option, surface) pair is a "yes".
NO = {("adhesion", "batch"), ("adhesion", "driver"), ("backend=reference", "batch")}


def _spec(cfg: LBMConfig, **knobs) -> RunSpec:
    return RunSpec(config=cfg, phases=PHASES, **knobs)


def _partner(cfg: LBMConfig) -> LBMConfig:
    """The same physics at another coupling: a batch-compatible sweep."""
    return dataclasses.replace(cfg, g_matrix=np.array([[0.0, 1.0], [1.0, 0.0]]))


def _check_yes(cfg: LBMConfig, surface: str) -> None:
    expected = run(_spec(cfg)).f
    if surface in ("reference", "fused"):
        other = dataclasses.replace(cfg, backend=surface)
        np.testing.assert_allclose(
            run(_spec(other)).f, expected, rtol=0.0, atol=1e-12
        )
        return
    if surface == "batch":
        first, _ = run_batch([_spec(cfg), _spec(_partner(cfg))])
        assert isinstance(first, EnsembleRunResult)
        got = first.f
    elif surface == "driver":
        got = run(_spec(cfg, ranks=2, transport="threads")).f
    else:
        got = serve_many([_spec(cfg)])[0].f
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("surface", SURFACES)
@pytest.mark.parametrize("option", sorted(OPTIONS))
def test_yes_cells_run_with_sequential_bits(option, surface):
    if (option, surface) in NO:
        pytest.skip("a 'no' cell: see its own test")
    _check_yes(OPTIONS[option], surface)


@pytest.mark.parametrize(
    ("option", "reason", "refusal"),
    [
        ("adhesion", "adhesion", "adhesion"),
        ("backend=reference", "backend", "'reference' config runs alone"),
    ],
)
def test_batch_refuses_and_runs_alone(option, reason, refusal):
    cfg = OPTIONS[option]
    results = run_batch([_spec(cfg), _spec(_partner(cfg))])
    assert [r.batch_fallback_reason for r in results] == [reason] * 2
    assert np.array_equal(results[0].f, run(_spec(cfg)).f)
    with pytest.raises(ValueError, match=refusal):
        EnsembleSpec(base=cfg, members=(MemberParams(),))


def test_driver_refuses_adhesion():
    """The driver does not apply the wall-adhesion term, so ``ranks > 1``
    refuses the option before any rank starts, on both entry points."""
    spec = _spec(OPTIONS["adhesion"], ranks=2, transport="threads")
    with pytest.raises(ValueError, match="adhesion"):
        run(spec)
    with pytest.raises(ValueError, match="adhesion"):
        execute_parallel(dataclasses.replace(spec, ranks=1))


def _doc_table() -> dict[tuple[str, str], str]:
    text = DOC.read_text()
    start = text.index("| option | reference | fused | batch | driver | serve |")
    cells = {}
    for line in text[start:].splitlines()[2:]:
        if not line.startswith("|"):
            break
        option, *row = [c.strip() for c in line.strip("|").split("|")]
        option = option.strip("`")
        for surface, cell in zip(SURFACES, row, strict=True):
            cells[(option, surface)] = cell
    return cells


def test_docs_table_matches_the_code():
    cells = _doc_table()
    assert {option for option, _ in cells} == set(OPTIONS)
    assert {key for key, cell in cells.items() if cell.startswith("no")} == NO
    assert all(
        cell.startswith(("yes", "no")) for cell in cells.values()
    ), cells
