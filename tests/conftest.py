"""Shared fixtures.

``reference_engines`` is the seam the cluster-level bit-identity tests
use: every cluster builds its network through
:func:`repro.core.cluster.build_network`, which always constructs the
pooled engines, so the tests swap that one builder for one that
constructs the reference models (the oracle) instead.
"""

import contextlib

import pytest

import repro.core.cluster as cluster
from repro.dv.flow import FlowNetwork
from repro.ib.fabric import IBFabric


def _reference_network(engine, spec, fabric):
    if fabric == "dv":
        return FlowNetwork(engine, spec.dv, spec.n_nodes)
    return IBFabric(engine, spec.ib, spec.n_nodes,
                    contention=spec.ib_contention)


@pytest.fixture
def reference_engines():
    """A context manager: clusters built inside ``with
    reference_engines():`` run the reference ``FlowNetwork`` /
    ``IBFabric`` instead of the pooled engines."""
    @contextlib.contextmanager
    def use():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cluster, "build_network", _reference_network)
            yield
    return use
