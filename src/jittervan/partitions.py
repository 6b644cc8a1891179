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
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import _check_integer

#: Enumeration above this order is refused: the partition count grows
#: super-exponentially in p.
ORDER_CAP = 7


@dataclass(frozen=True)
class Partition:
    """A set partition of {1,...,p} in canonical restricted-growth form,
    its labels integers (no bools) stored as a tuple of ``int``."""

    omega: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.omega) == 0:
            raise ValueError("partition of the empty set is not supported")
        top = 0
        for i, label in enumerate(self.omega):
            integral = type(label) is int or (
                isinstance(label, numbers.Integral) and not isinstance(label, bool)
            )
            if not integral or not 1 <= label <= top + 1:
                raise ValueError(
                    f"not a restricted-growth string of integers at position "
                    f"{i}: {self.omega!r}"
                )
            top = max(top, label)
        # a tuple of ints is kept as given, so memoised strings share it;
        # any other sequence is stored as a tuple of ints, so it hashes
        if type(self.omega) is not tuple or any(type(v) is not int for v in self.omega):
            object.__setattr__(self, "omega", tuple(map(int, self.omega)))

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
    seen: dict[int, int] = {}
    return Partition(tuple(seen.setdefault(value, len(seen) + 1) for value in labels))


@lru_cache(maxsize=None)
def _partitions(p: int) -> tuple[Partition, ...]:
    """All restricted-growth strings of length p, lexicographic: each string
    is extended by every label from 1 to its maximum plus one."""
    strings = [(1,)]
    for _ in range(p - 1):
        strings = [s + (label,) for s in strings for label in range(1, max(s) + 2)]
    return tuple(map(Partition, strings))


def enumerate_partitions(p: int) -> list[Partition]:
    """All partitions of {1,...,p} in lexicographic restricted-growth order."""
    p = _check_integer(p, "order", high=ORDER_CAP)
    return list(_partitions(p))


def enumerate_partitions_k(p: int, k: int) -> list[Partition]:
    """All partitions of {1,...,p} into exactly k blocks, lexicographic."""
    p = _check_integer(p, "order", high=ORDER_CAP)
    k = _check_integer(k, "block count", high=p)
    return [w for w in _partitions(p) if w.k == k]


@lru_cache(maxsize=None)
def stirling2(p: int, k: int) -> int:
    """Stirling number of the second kind, exact."""
    p = _check_integer(p, "order")
    k = _check_integer(k, "block count", high=p)
    if k == 1 or k == p:
        return 1
    return k * stirling2(p - 1, k) + stirling2(p - 1, k - 1)


def bell(p: int) -> int:
    """Bell number: count of all partitions of a p element set, exact."""
    p = _check_integer(p, "order")
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
