"""Numerically stable centered-moment accumulators (Pébay formulas).

The in-situ *learn* stage computes, per rank and per variable, the centered
aggregates ``(n, min, max, mean, M2, M3, M4)`` where
``Mk = sum (x - mean)^k``. Aggregates from different ranks merge with the
pairwise update formulas of [21], which are associative and numerically
stable — the property that makes learn a map-reduce and lets the hybrid
deployment ship tiny partial models instead of raw data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend import kernel


@dataclass
class MomentAccumulator:
    """Centered aggregates up to fourth order for one variable."""

    n: int = 0
    minimum: float = float("inf")
    maximum: float = float("-inf")
    mean: float = 0.0
    M2: float = 0.0
    M3: float = 0.0
    M4: float = 0.0

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_data(cls, data: np.ndarray) -> "MomentAccumulator":
        """Accumulate a data chunk (vectorised single sweep)."""
        x = np.asarray(data, dtype=np.float64).ravel()
        if x.size == 0:
            return cls()
        if not np.all(np.isfinite(x)):
            raise ValueError("moment accumulation requires finite data")
        mean = float(np.mean(x))
        d = x - mean
        d2 = d * d
        return cls(
            n=int(x.size),
            minimum=float(np.min(x)),
            maximum=float(np.max(x)),
            mean=mean,
            M2=float(np.sum(d2)),
            M3=float(np.sum(d2 * d)),
            M4=float(np.sum(d2 * d2)),
        )

    def update(self, value: float) -> None:
        """Streaming single-observation update (Welford/Pébay online form)."""
        n1 = self.n
        self.n += 1
        n = self.n
        delta = value - self.mean
        delta_n = delta / n
        delta_n2 = delta_n * delta_n
        term1 = delta * delta_n * n1
        self.mean += delta_n
        self.M4 += (term1 * delta_n2 * (n * n - 3 * n + 3)
                    + 6.0 * delta_n2 * self.M2 - 4.0 * delta_n * self.M3)
        self.M3 += term1 * delta_n * (n - 2) - 3.0 * delta_n * self.M2
        self.M2 += term1
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    # -- pairwise merge (the communication kernel of *learn*) ---------------------

    def merge(self, other: "MomentAccumulator") -> "MomentAccumulator":
        """Combine two accumulators; associative and order-insensitive."""
        if other.n == 0:
            return MomentAccumulator(**vars(self))
        if self.n == 0:
            return MomentAccumulator(**vars(other))
        na, nb = self.n, other.n
        n = na + nb
        delta = other.mean - self.mean
        delta2 = delta * delta

        mean = self.mean + delta * nb / n
        M2 = self.M2 + other.M2 + delta2 * na * nb / n
        M3 = (self.M3 + other.M3
              + delta * delta2 * na * nb * (na - nb) / (n * n)
              + 3.0 * delta * (na * other.M2 - nb * self.M2) / n)
        M4 = (self.M4 + other.M4
              + delta2 * delta2 * na * nb * (na * na - na * nb + nb * nb) / (n ** 3)
              + 6.0 * delta2 * (na * na * other.M2 + nb * nb * self.M2) / (n * n)
              + 4.0 * delta * (na * other.M3 - nb * self.M3) / n)
        return MomentAccumulator(
            n=n,
            minimum=min(self.minimum, other.minimum),
            maximum=max(self.maximum, other.maximum),
            mean=mean, M2=M2, M3=M3, M4=M4,
        )

    # -- serialisation (what the hybrid deployment moves over the wire) ------------

    PACKED_DOUBLES = 7  # n, min, max, mean, M2, M3, M4

    def pack(self) -> np.ndarray:
        """Serialise to a 7-double vector (the wire format)."""
        return np.array([float(self.n), self.minimum, self.maximum,
                         self.mean, self.M2, self.M3, self.M4], dtype=np.float64)

    @classmethod
    def unpack(cls, vec: np.ndarray) -> "MomentAccumulator":
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (cls.PACKED_DOUBLES,):
            raise ValueError(f"expected {cls.PACKED_DOUBLES} doubles, got {vec.shape}")
        return cls(n=int(vec[0]), minimum=float(vec[1]), maximum=float(vec[2]),
                   mean=float(vec[3]), M2=float(vec[4]), M3=float(vec[5]),
                   M4=float(vec[6]))


def moment_merge_op(a: MomentAccumulator,
                    b: MomentAccumulator) -> MomentAccumulator:
    """Binary reduce operator for collectives over moment accumulators.

    Marked so the numpy backend's ``vmpi.pairwise_reduce`` kernel can
    recognise it and fold the whole reduction tree with the vectorized
    Pébay formulas (the pairing is identical, so results are too).
    """
    return a.merge(b)


moment_merge_op.is_moment_merge = True


@kernel("statistics.learn_blocks")
def learn_blocks(blocks: list[np.ndarray]) -> list[MomentAccumulator]:
    """The batched learn pass: one accumulator per data block.

    Every backend runs this body (no workload gained from a batched
    numpy version, so there is none).
    """
    return [MomentAccumulator.from_data(b) for b in blocks]


@kernel("statistics.merge_moments")
def merge_accumulators(accs: list[MomentAccumulator]) -> MomentAccumulator:
    """Pairwise (tree-order) merge of many accumulators.

    Backend seam: the numpy backend packs the accumulators into a
    ``(p, 7)`` array and folds whole tree levels with the elementwise
    Pébay formulas — identical pairing and operation order, so the merged
    aggregates are bit-identical.
    """
    if not accs:
        raise ValueError("cannot merge an empty accumulator list")
    work = list(accs)
    while len(work) > 1:
        nxt = [work[i].merge(work[i + 1]) for i in range(0, len(work) - 1, 2)]
        if len(work) % 2:
            nxt.append(work[-1])
        work = nxt
    return work[0]


@kernel("statistics.merge_packed_moments")
def merge_packed_moments(packed: list[np.ndarray],
                         n_vars: int) -> list[MomentAccumulator]:
    """Merge rank-major packed partial models; one result per variable.

    ``packed[r]`` holds rank r's ``n_vars`` concatenated 7-double packs.
    The reference unpacks and tree-merges per variable; the numpy backend
    reshapes to ``(ranks, n_vars, 7)`` and folds the rank axis for every
    variable at once.
    """
    k = MomentAccumulator.PACKED_DOUBLES
    per_var: list[list[MomentAccumulator]] = [[] for _ in range(n_vars)]
    for vec in packed:
        vec = np.asarray(vec, dtype=np.float64)
        for i in range(n_vars):
            per_var[i].append(MomentAccumulator.unpack(vec[i * k:(i + 1) * k]))
    return [merge_accumulators(accs) for accs in per_var]
