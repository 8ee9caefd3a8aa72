"""Scalability model — paper Section 5.1, formulas (1)–(6) and Table I.

The paper measures scalability as the total number of message hops
(*HopCount*) needed to propagate one membership change with the one-round
algorithm, in the fault-free case, and normalises by the number ``n`` of
LMSs/access proxies:

* Tree-based hierarchy (CONGRESS-style) *without* representatives, height
  ``h >= 3`` and branching ``r >= 2``: formula (1).
* Hops that disappear when representatives are used (the same physical server
  plays the parent roles up the tree): formula (2); the tree *with*
  representatives is formula (3) and its normalised form is formula (4),
  written ``HCN_Tree``.
* Ring-based hierarchy, height ``h >= 2`` with every ring exactly ``r``
  nodes: formulas (5) and (6), written ``HCN_Ring``.

Table I tabulates ``HCN_Tree`` and ``HCN_Ring`` for six configurations each;
:func:`table1_rows` regenerates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple


def _validate_tree_params(height: int, branching: int) -> None:
    if height < 3:
        raise ValueError(f"tree-based hierarchy requires height >= 3, got {height}")
    if branching < 2:
        raise ValueError(f"tree-based hierarchy requires branching >= 2, got {branching}")


def _validate_ring_params(height: int, ring_size: int) -> None:
    if height < 2:
        raise ValueError(f"ring-based hierarchy requires height >= 2, got {height}")
    if ring_size < 2:
        raise ValueError(f"ring-based hierarchy requires ring size >= 2, got {ring_size}")


# ---------------------------------------------------------------------------
# Tree-based hierarchy
# ---------------------------------------------------------------------------


def tree_leaf_count(height: int, branching: int) -> int:
    """Number of leaf servers (LMSs) in the tree: ``n = r**(h-1)``."""
    _validate_tree_params(height, branching)
    return branching ** (height - 1)


def hcn_tree_without_representatives(height: int, branching: int) -> int:
    """Normalised form of formula (1) (divided by ``n``)."""
    _validate_tree_params(height, branching)
    return sum(branching ** (i + 1) for i in range(height - 1))


def _removed_hops_per_change(height: int, branching: int) -> int:
    """The per-change hops removed by representatives (formula (2) / n)."""
    h, r = height, branching
    total = 0
    for i in range(h - 2):  # i = 0 .. h-3
        inner = sum(r**j for j in range(i))  # sum_{j=0}^{i-1} r^j (empty sum = 0)
        total += (h - i - 2) * (r**i - inner)
    return total


def hopcount_removed_tree(height: int, branching: int) -> int:
    """Formula (2): hops removed from (1) when representatives are used."""
    _validate_tree_params(height, branching)
    n = tree_leaf_count(height, branching)
    return n * _removed_hops_per_change(height, branching)


def hopcount_tree(height: int, branching: int) -> int:
    """Formula (3): total HopCount of the tree-based hierarchy with representatives."""
    _validate_tree_params(height, branching)
    n = tree_leaf_count(height, branching)
    return n * hcn_tree(height, branching)


def hcn_tree(height: int, branching: int) -> int:
    """Formula (4): normalised HopCount ``HCN_Tree`` of the tree with representatives."""
    _validate_tree_params(height, branching)
    return hcn_tree_without_representatives(height, branching) - _removed_hops_per_change(
        height, branching
    )


# ---------------------------------------------------------------------------
# Ring-based hierarchy
# ---------------------------------------------------------------------------


def ring_access_proxy_count(height: int, ring_size: int) -> int:
    """Number of access proxies in the bottommost rings: ``n = r**h``."""
    _validate_ring_params(height, ring_size)
    return ring_size**height


def ring_total_rings(height: int, ring_size: int) -> int:
    """Total number of logical rings: ``tn = sum_{i=0}^{h-1} r**i``."""
    _validate_ring_params(height, ring_size)
    return sum(ring_size**i for i in range(height))


def hopcount_ring(height: int, ring_size: int) -> int:
    """Formula (5): total HopCount of the ring-based hierarchy."""
    _validate_ring_params(height, ring_size)
    n = ring_access_proxy_count(height, ring_size)
    return n * hcn_ring(height, ring_size)


def hcn_ring(height: int, ring_size: int) -> int:
    """Formula (6): normalised HopCount ``HCN_Ring`` of the ring-based hierarchy."""
    _validate_ring_params(height, ring_size)
    return (ring_size + 1) * ring_total_rings(height, ring_size) - 1


# ---------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalabilityRow:
    """One row of Table I: a tree configuration paired with a ring configuration."""

    n: int
    tree_height: int
    tree_branching: int
    hcn_tree: int
    ring_height: int
    ring_size: int
    hcn_ring: int

    @property
    def ring_to_tree_ratio(self) -> float:
        """How much more expensive the ring hierarchy is (paper: "comparable")."""
        return self.hcn_ring / self.hcn_tree


#: The (n, h, r) configurations of Table I.  Tree and ring columns share the
#: same n and r; the ring hierarchy needs one less level because its leaves
#: are grouped into rings rather than hanging off a parent.
TABLE1_CONFIGURATIONS: Tuple[Tuple[int, int, int, int], ...] = (
    # (n, tree_height, ring_height, r)
    (25, 3, 2, 5),
    (125, 4, 3, 5),
    (625, 5, 4, 5),
    (100, 3, 2, 10),
    (1000, 4, 3, 10),
    (10000, 5, 4, 10),
)

#: The HCN values printed in the paper's Table I, used by tests/benchmarks to
#: assert the reproduction matches the publication exactly.
TABLE1_PAPER_VALUES: Tuple[Tuple[int, int, int], ...] = (
    # (n, HCN_Tree, HCN_Ring)
    (25, 29, 35),
    (125, 149, 185),
    (625, 750, 935),
    (100, 109, 120),
    (1000, 1099, 1220),
    (10000, 11000, 12220),
)


def table1_rows(
    configurations: Sequence[Tuple[int, int, int, int]] = TABLE1_CONFIGURATIONS,
) -> List[ScalabilityRow]:
    """Regenerate Table I (optionally for a custom set of configurations)."""
    rows: List[ScalabilityRow] = []
    for n, tree_h, ring_h, r in configurations:
        expected_tree_n = tree_leaf_count(tree_h, r)
        expected_ring_n = ring_access_proxy_count(ring_h, r)
        if expected_tree_n != n or expected_ring_n != n:
            raise ValueError(
                f"inconsistent Table I configuration: n={n}, tree gives {expected_tree_n}, "
                f"ring gives {expected_ring_n}"
            )
        rows.append(
            ScalabilityRow(
                n=n,
                tree_height=tree_h,
                tree_branching=r,
                hcn_tree=hcn_tree(tree_h, r),
                ring_height=ring_h,
                ring_size=r,
                hcn_ring=hcn_ring(ring_h, r),
            )
        )
    return rows


def max_ring_to_tree_ratio(rows: Sequence[ScalabilityRow] | None = None) -> float:
    """The largest HCN_Ring / HCN_Tree ratio across Table I.

    The paper's claim is that the two hierarchies are "comparable"; across its
    table the ratio never exceeds ~1.25.
    """
    rows = list(rows) if rows is not None else table1_rows()
    return max(row.ring_to_tree_ratio for row in rows)
