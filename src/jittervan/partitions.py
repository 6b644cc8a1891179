"""Set partitions of {1,...,p} encoded as restricted-growth strings.

A partition is stored as the integer string ``omega`` where ``omega[i]`` is
the 1-based block label of element ``i+1`` and labels appear in order of
first use (``omega[0] == 1`` and each later entry exceeds the running
maximum by at most one).  This makes the encoding canonical: two label
vectors induce the same partition exactly when they map to the same string.

All counting is done in exact integer arithmetic (Python integers), so
Bell/Stirling values are exact for any order the enumeration cap admits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

#: Enumeration above this order is refused: the partition count grows
#: super-exponentially in p.
ORDER_CAP = 7


@dataclass(frozen=True)
class Partition:
    """A set partition of {1,...,p} in canonical restricted-growth form."""

    omega: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.omega) == 0:
            raise ValueError("partition of the empty set is not supported")
        top = 0
        for i, label in enumerate(self.omega):
            if label < 1 or label > top + 1:
                raise ValueError(
                    f"not a restricted-growth string at position {i}: {self.omega}"
                )
            top = max(top, label)

    @property
    def p(self) -> int:
        """Number of partitioned elements."""
        return len(self.omega)

    @property
    def k(self) -> int:
        """Number of blocks."""
        return max(self.omega)

    @property
    def blocks(self) -> tuple[frozenset[int], ...]:
        """Blocks as 1-based element sets, ordered by first appearance."""
        out: list[set[int]] = [set() for _ in range(self.k)]
        for i, label in enumerate(self.omega):
            out[label - 1].add(i + 1)
        return tuple(frozenset(b) for b in out)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        sizes = [0] * self.k
        for label in self.omega:
            sizes[label - 1] += 1
        return tuple(sizes)

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.omega) + "]"


def partition_of(labels: Sequence[int]) -> Partition:
    """Return the partition induced by equal values of ``labels``.

    Blocks are ordered by first appearance, e.g. ``[1,5,2,8,5,3,2]`` maps to
    the string ``[1,2,3,4,2,5,3]`` with five blocks.
    """
    if len(labels) == 0:
        raise ValueError("cannot partition an empty label vector")
    return Partition(_first_use_labels(labels))


def _first_use_labels(labels: Sequence[int]) -> tuple[int, ...]:
    """Relabel values 1, 2, ... in order of first appearance."""
    seen: dict[int, int] = {}
    return tuple(seen.setdefault(value, len(seen) + 1) for value in labels)


def dihedral_representative(
    partition: Partition, grouping: Partition
) -> tuple[Partition, Partition]:
    """Canonical member of a (fine, coarse) pair's dihedral orbit.

    The 2p rotations and reversals of the p indices act on ``partition``;
    its blocks are relabelled in order of first appearance and
    ``grouping`` (a partition of those blocks) follows the relabelling.
    The least pair of restricted-growth strings over the orbit is
    returned, so two pairs share a representative exactly when one maps
    onto the other.  Block sizes and counts of both partitions are kept.
    """
    if grouping.p != partition.k:
        raise ValueError(f"grouping must partition {{1,...,{partition.k}}}")

    def relabelled(labels: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        # dict.fromkeys lists the old block labels in their new order
        coarse = [grouping.omega[b - 1] for b in dict.fromkeys(labels)]
        return _first_use_labels(labels), _first_use_labels(coarse)

    omega = partition.omega
    fine, coarse = min(
        relabelled(walk[shift:] + walk[:shift])
        for walk in (omega, omega[::-1])
        for shift in range(len(walk))
    )
    return Partition(fine), Partition(coarse)


def _growth_strings(p: int, k_exact: int | None) -> Iterator[tuple[int, ...]]:
    """Yield restricted-growth strings of length p in lexicographic order.

    If ``k_exact`` is given, only strings whose final label count equals it
    are produced; the search is pruned so unreachable prefixes are skipped.
    """
    prefix = [1]

    def rec(top: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == p:
            if k_exact is None or top == k_exact:
                yield tuple(prefix)
            return
        remaining = p - len(prefix)
        hi = top + 1 if k_exact is None else min(top + 1, k_exact)
        for label in range(1, hi + 1):
            new_top = max(top, label)
            if k_exact is not None and new_top + remaining - 1 < k_exact:
                continue
            prefix.append(label)
            yield from rec(new_top)
            prefix.pop()

    yield from rec(1)


def enumerate_partitions(p: int) -> list[Partition]:
    """All partitions of {1,...,p} in lexicographic restricted-growth order."""
    if p < 1:
        raise ValueError(f"order must be >= 1, got {p}")
    if p > ORDER_CAP:
        raise ValueError(f"order {p} exceeds the enumeration cap {ORDER_CAP}")
    return [Partition(s) for s in _growth_strings(p, None)]


def enumerate_partitions_k(p: int, k: int) -> list[Partition]:
    """All partitions of {1,...,p} into exactly k blocks, lexicographic."""
    if p < 1:
        raise ValueError(f"order must be >= 1, got {p}")
    if p > ORDER_CAP:
        raise ValueError(f"order {p} exceeds the enumeration cap {ORDER_CAP}")
    if not 1 <= k <= p:
        raise ValueError(f"block count must satisfy 1 <= k <= {p}, got {k}")
    return [Partition(s) for s in _growth_strings(p, k)]


@lru_cache(maxsize=None)
def stirling2(p: int, k: int) -> int:
    """Stirling number of the second kind, exact."""
    if p < 1 or not 1 <= k <= p:
        raise ValueError(f"need 1 <= k <= p with p >= 1, got p={p}, k={k}")
    if k == 1 or k == p:
        return 1
    return k * stirling2(p - 1, k) + stirling2(p - 1, k - 1)


def bell(p: int) -> int:
    """Bell number: count of all partitions of a p element set, exact."""
    if p < 1:
        raise ValueError(f"order must be >= 1, got {p}")
    return sum(stirling2(p, k) for k in range(1, p + 1))


def mobius_coefficient(partition: Partition) -> int:
    """Signed weight (-1)^(k-h) * prod (|block|-1)! of a partition.

    For a partition of {1,...,k} into h blocks this is the product over
    blocks of (-1)^(size-1) * (size-1)!, i.e. the partition-lattice Moebius
    weight attached to merging the blocks.
    """
    out = 1
    for size in partition.block_sizes:
        out *= (-1) ** (size - 1) * math.factorial(size - 1)
    return out


def label_vector_count(k: int, r: int) -> int:
    """Number of label vectors on r symbols inducing a k-block partition."""
    if r < k:
        return 0
    return math.perm(r, k)


def label_vectors(partition: Partition, r: int) -> Iterator[tuple[int, ...]]:
    """Yield every vector in {0,...,r-1}^p inducing ``partition``.

    Vectors are produced lazily, ordered by the lexicographic order of the
    injective block-label assignment; the total count is r!/(r-k)!.
    """
    k = partition.k
    omega = partition.omega
    for assignment in itertools.permutations(range(r), k):
        yield tuple(assignment[label - 1] for label in omega)
