"""Reliability model — paper Section 5.2, formulas (7)–(8) and Table II.

The model assumes node faults that are uniform and independent with
probability ``f`` (link faults are folded into node faults).  A logical ring
*functions well* when at most one of its ``r`` members is faulty — a single
fault is detected by token retransmission and locally repaired by excluding
the node, while two or more simultaneous faults partition the ring.  The full
hierarchy (the worst case: maximal number of tiers, every ring full) contains
``tn = sum_{i=0}^{h-1} r**i`` rings and functions well when fewer than ``k``
of them are partitioned.

* Formula (7): ``t = Prob_fw-ring(r, f) = (1 - f + r f) (1 - f)**(r-1)``.
* Formula (8): ``Prob_fw-hierarchy(n, h, r, f, k) =
  sum_{i=0}^{k-1} C(tn, i) t**(tn-i) (1-t)**i``.

Table II evaluates the hierarchy probability for ``h = 3`` with ``r = 5``
(n = 125) and ``r = 10`` (n = 1000), fault probabilities 0.1%, 0.5% and 2.0%
and ``k`` in {1, 2, 3}; :func:`table2_rows` regenerates it.

For the paper's qualitative claim that the ring hierarchy is more reliable
than the tree-based hierarchy *with representatives*, the module also provides
an analytical Function-Well probability for that baseline
(:func:`tree_function_well_probability`): a representative failure severs all
of its children, so the tree stays unpartitioned only when every interior
(representative) server survives, while leaf failures — like single ring
faults — are locally absorbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.analysis.scalability import ring_access_proxy_count, ring_total_rings


def _validate_probability(f: float, name: str = "fault probability") -> None:
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {f}")


def _binom_cdf(k: int, n: int, p: float) -> float:
    """``P[X <= k]`` for ``X ~ Binomial(n, p)``.

    Each term ``C(n, i) p**i (1-p)**(n-i)`` is built in log space and the
    terms are summed with :func:`math.fsum`: the direct product overflows a
    float once ``C(n, i)`` passes ~1e308 (n = 2000, i = 1500).  Summing the
    lower tail, never ``1 - upper``, keeps the relative error of a tiny
    result at that of its largest term.  ``lgamma`` rounding can lift a
    near-certain sum just above 1 (~1e-10 at n = 100 000), so it is clamped.
    """
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    log_n_fact = math.lgamma(n + 1)
    total = math.fsum(
        math.exp(
            log_n_fact
            - math.lgamma(i + 1)
            - math.lgamma(n - i + 1)
            + i * log_p
            + (n - i) * log_q
        )
        for i in range(k + 1)
    )
    return min(1.0, total)


def ring_function_well_probability(ring_size: int, fault_probability: float) -> float:
    """Formula (7): probability that one logical ring functions well.

    The ring functions well when zero or one of its ``r`` members is faulty.
    """
    if ring_size < 1:
        raise ValueError(f"ring size must be >= 1, got {ring_size}")
    _validate_probability(fault_probability)
    f, r = fault_probability, ring_size
    value = (1.0 - f + r * f) * (1.0 - f) ** (r - 1)
    # Guard against floating-point overshoot just above 1.0 for tiny f.
    return min(1.0, max(0.0, value))


def hierarchy_function_well_probability(
    height: int,
    ring_size: int,
    fault_probability: float,
    max_partitions: int = 1,
) -> float:
    """Formula (8): probability the full hierarchy functions well.

    ``max_partitions`` is the paper's ``k``: the hierarchy is considered
    Function-Well when fewer than ``k`` rings fail to function well (i.e. at
    most ``k - 1`` rings are partitioned — which yields at most ``k``
    partitions of the hierarchy overall, since each partitioned ring splits
    one component off the main hierarchy).
    """
    if max_partitions < 1:
        raise ValueError(f"max_partitions must be >= 1, got {max_partitions}")
    _validate_probability(fault_probability)
    t = ring_function_well_probability(ring_size, fault_probability)
    tn = ring_total_rings(height, ring_size)
    # Binomial tail: at most (k-1) of the tn rings fail to function well.
    return _binom_cdf(max_partitions - 1, tn, 1.0 - t)


def tree_function_well_probability(
    height: int,
    branching: int,
    fault_probability: float,
    max_partitions: int = 1,
) -> float:
    """Function-Well probability of the tree-based hierarchy with representatives.

    In the CONGRESS-style tree, the servers of levels above the leaves are
    *representatives* — physically the same machines as (a subset of) the leaf
    servers.  A representative failure disconnects the whole subtree below it,
    so, unlike a ring, there is no single-fault repair margin at interior
    positions: the hierarchy stays whole only while every representative
    survives.  Allowing up to ``k`` partitions tolerates up to ``k - 1``
    failed representatives (each failed representative detaches at least one
    additional component).

    The number of representative servers is the number of interior nodes,
    ``sum_{i=0}^{h-2} r**i``.
    """
    if height < 3:
        raise ValueError(f"tree-based hierarchy requires height >= 3, got {height}")
    if branching < 2:
        raise ValueError(f"branching must be >= 2, got {branching}")
    if max_partitions < 1:
        raise ValueError(f"max_partitions must be >= 1, got {max_partitions}")
    _validate_probability(fault_probability)
    representatives = sum(branching**i for i in range(height - 1))
    return _binom_cdf(max_partitions - 1, representatives, fault_probability)


# ---------------------------------------------------------------------------
# Table II
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReliabilityRow:
    """One row of Table II."""

    n: int
    height: int
    ring_size: int
    fault_probability: float
    max_partitions: int
    function_well: float

    @property
    def function_well_percent(self) -> float:
        return 100.0 * self.function_well


#: (height, ring_size, fault probability, k) for every row of Table II.
TABLE2_CONFIGURATIONS: Tuple[Tuple[int, int, float, int], ...] = tuple(
    (3, r, f, k)
    for r in (5, 10)
    for f in (0.001, 0.005, 0.02)
    for k in (1, 2, 3)
)

#: The Function-Well percentages printed in the paper's Table II
#: (left block r=5 / n=125, right block r=10 / n=1000), keyed by
#: (n, fault probability in percent, k).
TABLE2_PAPER_VALUES: Tuple[Tuple[int, float, int, float], ...] = (
    (125, 0.1, 1, 99.968),
    (125, 0.1, 2, 99.999),
    (125, 0.1, 3, 99.999),
    (125, 0.5, 1, 99.211),
    (125, 0.5, 2, 99.972),
    (125, 0.5, 3, 99.975),
    (125, 2.0, 1, 88.409),
    (125, 2.0, 2, 98.981),
    (125, 2.0, 3, 99.592),
    (1000, 0.1, 1, 99.500),
    (1000, 0.1, 2, 99.994),
    (1000, 0.1, 3, 99.996),
    (1000, 0.5, 1, 88.448),
    (1000, 0.5, 2, 99.215),
    (1000, 0.5, 3, 99.864),
    (1000, 2.0, 1, 16.094),
    (1000, 2.0, 2, 45.470),
    (1000, 2.0, 3, 72.038),
)


def table2_rows(
    configurations: Sequence[Tuple[int, int, float, int]] = TABLE2_CONFIGURATIONS,
) -> List[ReliabilityRow]:
    """Regenerate Table II (optionally for a custom set of configurations)."""
    rows: List[ReliabilityRow] = []
    for height, ring_size, fault_probability, k in configurations:
        rows.append(
            ReliabilityRow(
                n=ring_access_proxy_count(height, ring_size),
                height=height,
                ring_size=ring_size,
                fault_probability=fault_probability,
                max_partitions=k,
                function_well=hierarchy_function_well_probability(
                    height, ring_size, fault_probability, k
                ),
            )
        )
    return rows


def headline_claims() -> dict:
    """The two numbers quoted in the paper's abstract (n=1000, f=0.1%)."""
    return {
        "no_partition_probability": hierarchy_function_well_probability(3, 10, 0.001, 1),
        "at_most_3_partitions_probability": hierarchy_function_well_probability(3, 10, 0.001, 3),
    }
