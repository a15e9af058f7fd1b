"""Distribution contracts: vectorized deterministic ppf, bounds,
medians, canonical docs, and validation."""

import json

import numpy as np
import pytest

from repro.sweep.distributions import Discrete, Uniform

U = np.linspace(0.0, 0.999, 25)


def test_uniform_maps_the_unit_interval_onto_the_range():
    dist = Uniform(low=0.2, high=1.0)
    values = dist.ppf(U)
    assert values.shape == U.shape
    assert values.min() >= 0.2 and values.max() <= 1.0
    assert dist.ppf(np.asarray([0.0]))[0] == 0.2
    assert dist.median() == pytest.approx(0.6)


def test_discrete_partitions_the_unit_interval_equiprobably():
    dist = Discrete(values=(3.0, 11.0, 19.0))
    values = dist.ppf(np.asarray([0.0, 0.32, 0.34, 0.66, 0.67, 0.999]))
    assert values.tolist() == [3.0, 3.0, 11.0, 11.0, 19.0, 19.0]
    assert set(dist.ppf(U)) <= {3.0, 11.0, 19.0}


def test_ppf_is_deterministic():
    for dist in (
        Uniform(0.0, 2.0),
        Discrete((1.0, 2.0)),
    ):
        assert np.array_equal(dist.ppf(U), dist.ppf(U))


def test_docs_are_canonical_json():
    for dist in (
        Uniform(0.0, 2.0),
        Discrete((1.0, 2.0)),
    ):
        doc = dist.doc()
        assert "kind" in doc
        json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Uniform(1.0, 1.0),
        lambda: Uniform(2.0, 1.0),
        lambda: Discrete(()),
    ],
)
def test_invalid_parameters_rejected(build):
    with pytest.raises(ValueError):
        build()
