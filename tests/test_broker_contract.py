"""Run the broker-contract conformance suite over every shipped object store.

``tests/broker_contract.py`` holds the suite; this module enrolls
:class:`~repro.bench.transport.ObjectStoreBroker` over the in-memory and the
filesystem object store, so every contract clause is asserted identically
across stores.  Store-specific behaviour (CAS races, corrupt objects) lives
in ``tests/test_transport.py`` instead.

:class:`TestBrokerContractChaos` enrolls the same stores *again* under a
seeded hostile :class:`~repro.bench.faults.FaultSchedule` (transient error
bursts on every store operation): bounded retry is supposed to make that
weather invisible, so every clause must hold verbatim — same assertions,
zero accommodations.

:class:`TestBrokerContractSplit` enrolls the same stores in the deployed
shape, with the submitter and the workers on separate broker handles, so
no clause can pass on state a handle keeps in memory instead of in the
store.
"""

import pytest

from broker_contract import (
    ALL_BROKER_KINDS,
    CHAOS_BROKER_KINDS,
    SPLIT_BROKER_KINDS,
    BrokerContractSuite,
)


class TestBrokerContract(BrokerContractSuite):
    """All contract clauses × all shipped object stores."""

    @pytest.fixture(params=ALL_BROKER_KINDS)
    def broker_kind(self, request) -> str:
        return request.param


class TestBrokerContractChaos(BrokerContractSuite):
    """All contract clauses × all stores × a hostile fault schedule."""

    @pytest.fixture(params=CHAOS_BROKER_KINDS)
    def broker_kind(self, request) -> str:
        return request.param


class TestBrokerContractSplit(BrokerContractSuite):
    """All contract clauses × all stores × submitter and workers on
    separate broker handles."""

    @pytest.fixture(params=SPLIT_BROKER_KINDS)
    def broker_kind(self, request) -> str:
        return request.param
