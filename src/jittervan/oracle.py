"""Brute-force verifiers for the combinatorial identities behind the engine.

Two independent evaluation paths are provided for the distinct-label phase
sum attached to a partition: a literal enumeration over ordered tuples of
distinct grid labels, and the partition expansion with signed weights and
integer zero-sum indicators whose leading powers the engine relies on.
Their difference is a lower-order polynomial in the label count, which the
scan checks empirically.  A matrix-power trace estimator is included as an
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
from .errors import BudgetError
from .partitions import Partition, enumerate_partitions_k, mobius_coefficient

#: The exact enumeration visits r!/(r-k)! ordered tuples of distinct
#: labels for k blocks; it refuses more blocks or tuples than these.
BLOCK_CAP = 4
TUPLE_BUDGET = 200_000


@dataclass(frozen=True)
class PhaseSumInstance:
    """A partition with one integer offset vector per block.

    The block vectors must sum to zero, as every vector built from cyclic
    differences does; ``rho`` and ``d`` fix the label grid, so the label
    count is rho^d.  Diagnostic instances may disable the zero-sum check.
    """

    omega: Partition
    block_vectors: tuple[tuple[int, ...], ...]
    rho: int
    d: int
    enforce_zero_sum: bool = True

    def __post_init__(self) -> None:
        k = self.omega.k
        if len(self.block_vectors) != k:
            raise ValueError(f"need {k} block vectors, got {len(self.block_vectors)}")
        if any(len(vec) != self.d for vec in self.block_vectors):
            raise ValueError(f"block vectors must have length {self.d}")
        if self.rho < 1:
            raise ValueError(f"vertex count must be >= 1, got {self.rho}")
        if self.enforce_zero_sum:
            totals = [sum(vec[m] for vec in self.block_vectors) for m in range(self.d)]
            if any(totals):
                raise ValueError(
                    f"block vectors must sum to zero componentwise, got {totals}"
                )

    @property
    def r(self) -> int:
        return self.rho**self.d


def instance_from_labels(
    omega: Partition, offsets: np.ndarray, rho: int
) -> PhaseSumInstance:
    """Build the per-block vectors from a p x d integer offset matrix."""
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.ndim != 2 or offsets.shape[0] != omega.p:
        raise ValueError(f"offsets must be {omega.p} x d, got {offsets.shape}")
    forms = difference_matrix(omega)
    vectors = forms @ offsets
    return PhaseSumInstance(
        omega,
        tuple(tuple(int(v) for v in row) for row in vectors),
        rho,
        offsets.shape[1],
    )


def distinct_label_sum(instance: PhaseSumInstance) -> complex:
    """Exact phase sum over ordered tuples of distinct labels.

    Phase exponents are accumulated as integers modulo rho and combined
    with the roots of unity only at the end, so the enumeration itself is
    exact; BLOCK_CAP and TUPLE_BUDGET keep it affordable.
    """
    k = instance.omega.k
    r = instance.r
    if r < k:
        return 0j
    if k > BLOCK_CAP or math.perm(r, k) > TUPLE_BUDGET:
        raise BudgetError(
            f"distinct-label enumeration with r={r}, k={k} needs "
            f"{math.perm(r, k)} tuples, over the budget {TUPLE_BUDGET} "
            f"or the cap of {BLOCK_CAP} blocks"
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
    """Block groupings whose merged vectors all vanish exactly."""
    k = instance.omega.k
    vectors = np.array(instance.block_vectors, dtype=np.int64)
    out = []
    for h in range(1, k + 1):
        for grouping in enumerate_partitions_k(k, h):
            sums = [
                vectors[[i - 1 for i in sorted(block)]].sum(axis=0)
                for block in grouping.blocks
            ]
            if all(not s.any() for s in sums):
                out.append(grouping)
    return out


def partition_delta_sum(instance: PhaseSumInstance) -> int:
    """Leading-power partition expansion of the phase sum (an integer)."""
    r = instance.r
    total = 0
    for grouping in surviving_groupings(instance):
        total += r**grouping.k * mobius_coefficient(grouping)
    return total


@dataclass(frozen=True)
class ScanRow:
    r: int
    residual: float


class ResidualScan(list):
    """The rows of a residual scan, with the leading surviving power h_max."""

    def __init__(self, rows: list[ScanRow], h_max: int) -> None:
        super().__init__(rows)
        self.h_max = h_max

    @property
    def decays(self) -> bool:
        """Whether residual / r^h_max does not grow along the scan, so the
        residual stays one order below the leading power (exact scans pass)."""
        ratios = [row.residual / row.r ** max(self.h_max, 1) for row in self]
        return max(ratios) <= 1e-9 or ratios[-1] <= ratios[0] * 1.0000001


def residual_scan(
    omega: Partition,
    block_vectors: tuple[tuple[int, ...], ...],
    r_list,
    d: int = 1,
) -> ResidualScan:
    """Compare both phase-sum paths along growing label counts.

    Each row holds the residual |distinct - partition| at one label count;
    ``decays`` gives the verdict on the whole scan.
    """
    rows: list[ScanRow] = []
    h_max = 0
    for r in sorted(r_list):
        rho = round(r ** (1.0 / d))
        if rho**d != r:
            raise ValueError(f"label count {r} is not a perfect {d}-th power")
        instance = PhaseSumInstance(omega, block_vectors, rho, d)
        if not h_max:
            survivors = surviving_groupings(instance)
            h_max = max((g.k for g in survivors), default=0)
        residual = abs(distinct_label_sum(instance) - partition_delta_sum(instance))
        rows.append(ScanRow(r, residual))
    return ResidualScan(rows, h_max)


def brute_trace_moment(
    config: EnsembleConfig, p: int, trials: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo moment by direct matrix powers, no eigensolver.

    Returns the mean and standard error over trials of trace(T^p)/n_rows;
    an independent path against the eigenvalue-based estimate.  Trial t
    draws the positions ``simulate`` draws for trial t at the same seed.
    """
    if p < 1:
        raise ValueError(f"moment order must be >= 1, got {p}")
    if trials < 1:
        raise ValueError(f"trial count must be >= 1, got {trials}")
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
