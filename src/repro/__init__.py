"""repro — reproduction of the RGB group membership protocol (ICPP 2004).

The package is organised as:

``repro.sim``
    Discrete-event simulation substrate: event engine, virtual clock,
    message transport with latency and loss, fault injection, mobility.
``repro.topology``
    The 4-tier integrated mobile Internet architecture of Section 3
    (Mobile Hosts, Access Proxies, Access Gateways, Border Routers) and
    generators / renderers for Figures 1 and 2.
``repro.core``
    The paper's primary contribution: the RGB ring-based hierarchy, the
    One-Round Token Passing Membership algorithm, the Membership-Query
    algorithm (TMS/BMS/IMS), handoff, failure detection and repair, and
    the partition/merge extension.
``repro.baselines``
    Comparators: CONGRESS-style tree hierarchy (with and without
    representatives), Moshe-style one-round tree membership, a flat
    Totem-style token ring, and a SWIM-style gossip protocol.
``repro.analysis``
    Closed-form scalability (Table I) and reliability (Table II) models,
    Monte-Carlo validation, and table regeneration.
``repro.workloads``
    Churn, handoff and query workload generators.

Quickstart::

    from repro import RGBSimulation, SimulationConfig

    sim = RGBSimulation(SimulationConfig(num_aps=25, ring_size=5, seed=7))
    sim.build()
    member = sim.join_member(ap_index=0)
    sim.run_until_quiescent()
    assert member.guid in sim.global_membership()
"""

import importlib

__version__ = "1.0.0"

#: Public name -> the module that defines it.  PEP 562 ``__getattr__``
#: imports a module on the first use of one of its names, so ``import repro``
#: alone loads no submodule (a live shard never pays for the simulator,
#: numpy or the analysis code).
_EXPORTS = {
    "RGBSimulation": "repro.core.simulation",
    "SimulationConfig": "repro.core.config",
    "ProtocolConfig": "repro.core.config",
    "MembershipEvent": "repro.core.membership",
    "MembershipEventType": "repro.core.membership",
    "MembershipView": "repro.core.membership",
    "hcn_ring": "repro.analysis.scalability",
    "hcn_tree": "repro.analysis.scalability",
    "table1_rows": "repro.analysis.scalability",
    "ring_function_well_probability": "repro.analysis.reliability",
    "hierarchy_function_well_probability": "repro.analysis.reliability",
    "table2_rows": "repro.analysis.reliability",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)
