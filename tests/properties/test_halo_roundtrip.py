"""Property test of the decomposition's core identity: splitting a random
population field into slabs, exchanging halos, and streaming locally must
reproduce global periodic streaming exactly, for any field and any
partition."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lbm.lattice import D2Q9
from repro.lbm.streaming import stream
from repro.parallel.decomposition import CartTopology
from repro.parallel.halo import HaloExchanger
from repro.parallel.threads import run_spmd

fields = st.tuples(
    st.integers(6, 16),   # nx
    st.integers(4, 8),    # ny
    st.integers(0, 2**16),  # seed
    st.integers(2, 4),    # ranks
)


def split_counts(nx: int, ranks: int) -> list[int]:
    base, extra = divmod(nx, ranks)
    return [base + (1 if r < extra else 0) for r in range(ranks)]


@given(params=fields)
@settings(max_examples=25, deadline=None)
def test_slab_streaming_equals_global(params):
    nx, ny, seed, ranks = params
    rng = np.random.default_rng(seed)
    f_global = rng.random((1, D2Q9.Q, nx, ny))

    reference = f_global[0].copy()
    stream(reference, D2Q9)

    counts = split_counts(nx, ranks)
    starts = np.concatenate(([0], np.cumsum(counts)))

    def rank_main(comm):
        lo, hi = starts[comm.rank], starts[comm.rank + 1]
        local = np.zeros((1, D2Q9.Q, counts[comm.rank] + 2, ny))
        local[:, :, 1:-1] = f_global[:, :, lo:hi]
        halo = HaloExchanger(D2Q9, comm, CartTopology(counts, [ny]))
        halo.exchange_f(local, phase=0)
        stream(local[0], D2Q9)
        return local[0][:, 1:-1]

    pieces = run_spmd(ranks, rank_main)
    assembled = np.concatenate(pieces, axis=1)

    # Only the x-leaning populations cross slab boundaries; together with
    # the c_x = 0 ones (purely local) everything must match the global
    # periodic stream exactly.
    assert np.array_equal(assembled, reference)
