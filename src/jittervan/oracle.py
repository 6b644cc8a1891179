"""Brute-force verifiers for the combinatorial identities behind the engine.

Two independent evaluation paths are provided for the distinct-label phase
sum attached to a partition: a literal enumeration over ordered tuples of
distinct grid labels, and the partition expansion with signed weights and
indicators that each group's summed vector vanishes mod rho.  Moebius
inversion on the partition lattice makes the two equal exactly, whatever
the block vectors sum to.  A matrix-power trace estimator is included as an
eigenvalue-free route to the empirical moments.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .constraints import difference_matrix
from .ensemble import (
    EnsembleConfig,
    gram_matrix,
    sample_positions,
    sampling_matrix,
    vertex_vectors,
)
from .errors import BudgetError, _check_integer
from .partitions import Partition, enumerate_partitions_k, mobius_coefficient

#: The exact enumeration visits r!/(r-k)! ordered tuples of distinct
#: labels for k blocks; it refuses more tuples than this.
TUPLE_BUDGET = 200_000


@dataclass(frozen=True)
class PhaseSumInstance:
    """A partition with one integer offset vector per block.

    ``rho`` and ``d`` fix the label grid, so the label count is rho^d.  The
    block vectors may sum to anything; every entry must be an integer, and
    is stored as an ``int``.
    """

    omega: Partition
    block_vectors: tuple[tuple[int, ...], ...]
    rho: int
    d: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", _check_integer(self.rho, "vertex count"))
        object.__setattr__(self, "d", _check_integer(self.d, "dimension"))
        k = self.omega.k
        if len(self.block_vectors) != k:
            raise ValueError(f"need {k} block vectors, got {len(self.block_vectors)}")
        if any(len(vec) != self.d for vec in self.block_vectors):
            raise ValueError(f"block vectors must have length {self.d}")
        object.__setattr__(self, "block_vectors", _integer_rows(self.block_vectors))

    @property
    def r(self) -> int:
        return self.rho**self.d


def _integer_rows(rows) -> tuple[tuple[int, ...], ...]:
    """Each offset as an ``int``; refuse one that is no integer, or a bool."""
    return tuple(
        tuple(_check_integer(v, "offset", low=-math.inf) for v in row) for row in rows
    )


def instance_from_labels(
    omega: Partition, offsets: np.ndarray, rho: int
) -> PhaseSumInstance:
    """Build the per-block vectors from a p x d integer offset matrix."""
    shape = np.shape(offsets)
    if len(shape) != 2 or shape[0] != omega.p:
        raise ValueError(f"offsets must be {omega.p} x d, got {shape}")
    offsets = np.array(_integer_rows(offsets), dtype=np.int64)
    vectors = difference_matrix(omega) @ offsets
    return PhaseSumInstance(omega, vectors.tolist(), rho, shape[1])


def distinct_label_sum(instance: PhaseSumInstance) -> complex:
    """Exact phase sum over ordered tuples of distinct labels.

    Phase exponents are accumulated as integers modulo rho and combined
    with the roots of unity only at the end, so the enumeration itself is
    exact; TUPLE_BUDGET keeps it affordable.  With fewer labels than
    blocks there is no tuple, and the sum is 0.
    """
    k = instance.omega.k
    r = instance.r
    if math.perm(r, k) > TUPLE_BUDGET:
        raise BudgetError(
            f"distinct-label enumeration with r={r}, k={k} needs "
            f"{math.perm(r, k)} tuples, over the budget {TUPLE_BUDGET}"
        )
    # integer phase exponent per (label, block), reduced modulo rho
    vectors = np.array(instance.block_vectors, dtype=np.int64)
    table = vertex_vectors(instance.rho, instance.d) @ vectors.T % instance.rho
    residue_counts = np.zeros(instance.rho, dtype=np.int64)
    for tup in itertools.permutations(range(r), k):
        exponent = 0
        for j in range(k):
            exponent += table[tup[j], j]
        residue_counts[exponent % instance.rho] += 1
    phases = np.exp(-2j * np.pi * np.arange(instance.rho) / instance.rho)
    return complex(np.dot(residue_counts, phases))


def surviving_groupings(instance: PhaseSumInstance) -> list[Partition]:
    """Block groupings whose merged vectors all vanish mod rho."""
    k = instance.omega.k
    vectors = np.array(instance.block_vectors, dtype=np.int64)
    out = []
    for h in range(1, k + 1):
        for grouping in enumerate_partitions_k(k, h):
            sums = [
                vectors[[i - 1 for i in sorted(block)]].sum(axis=0)
                for block in grouping.blocks
            ]
            if all(not (s % instance.rho).any() for s in sums):
                out.append(grouping)
    return out


def partition_delta_sum(instance: PhaseSumInstance) -> int:
    """The phase sum by its partition expansion over the surviving groupings,
    an integer equal to ``distinct_label_sum`` exactly."""
    r = instance.r
    total = 0
    for grouping in surviving_groupings(instance):
        total += r**grouping.k * mobius_coefficient(grouping)
    return total


def brute_trace_moment(
    config: EnsembleConfig, p: int, trials: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo moment by direct matrix powers, no eigensolver.

    Returns the mean and standard error over trials of trace(T^p)/n_rows;
    an independent path against the eigenvalue-based estimate.  Trial t
    draws the positions ``simulate`` draws for trial t at the same seed.
    """
    p = _check_integer(p, "moment order")
    trials = _check_integer(trials, "trial count")
    if config.n_rows > 512:
        raise BudgetError(
            f"matrix-power oracle is capped at 512 rows, got {config.n_rows}"
        )
    values = []
    for stream in np.random.SeedSequence(seed).spawn(trials):
        positions = sample_positions(config, stream)
        G = sampling_matrix(config, positions)
        T = gram_matrix(G, config.beta)
        power = np.linalg.matrix_power(T, p)
        values.append(float(np.trace(power).real) / config.n_rows)
    mean = float(np.mean(values))
    err = float(np.std(values, ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return mean, err
