"""The virtual communicator: SPMD execution + functional collectives.

``VirtualComm`` runs all ranks of an SPMD program inside one process. Rank
bodies execute sequentially in rank order (deterministic), and collectives
operate on the list of per-rank contributions. A :class:`CommTracker`
records every collective's modeled time and byte volume so the performance
layer can charge communication to the simulated machine.
"""

from __future__ import annotations

import pickle
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.backend import kernel
from repro.machine.gemini import GeminiNetwork
from repro.obs.flow import EDGE_COLLECTIVE, FlowContext
from repro.obs.tracer import get_tracer
from repro.vmpi import collectives as coll


def payload_bytes(value: Any) -> int:
    """Byte size of a collective payload.

    NumPy arrays report their buffer size; other objects are costed at
    their pickle size (mirroring mpi4py's lowercase-method semantics).
    """
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


@dataclass
class CommRecord:
    """One collective operation's modeled cost."""

    op: str
    n_ranks: int
    nbytes: int
    time: float


@dataclass
class CommTracker:
    """Accumulates modeled communication costs for a VirtualComm."""

    records: list[CommRecord] = field(default_factory=list)
    #: Causal flow the communicator's collectives currently feed (set by
    #: the driver around an in-situ stage; None = untracked).
    flow: FlowContext | None = None

    def __post_init__(self) -> None:
        self._tracer = get_tracer()

    def add(self, op: str, n_ranks: int, nbytes: int, time: float) -> None:
        self.records.append(CommRecord(op, n_ranks, nbytes, time))
        if self._tracer.enabled:
            # Single chokepoint for every VirtualComm collective.
            self._tracer.counter(f"vmpi.{op}")
            self._tracer.counter("vmpi.coll_bytes", nbytes)
            self._tracer.metrics.histogram("vmpi.coll_time").observe(time)
            self._tracer.instant(f"vmpi.{op}", lane="vmpi", n_ranks=n_ranks,
                                 nbytes=nbytes, modeled_time=time)
            if self.flow is not None:
                self._tracer.flow_step(self.flow, EDGE_COLLECTIVE, "vmpi",
                                       op=op, n_ranks=n_ranks, nbytes=nbytes,
                                       modeled_time=time,
                                       rounds=coll.rounds(op, n_ranks))

    @property
    def total_time(self) -> float:
        return sum(r.time for r in self.records)

    @property
    def total_bytes(self) -> int:
        return sum(r.nbytes for r in self.records)

    def count(self, op: str) -> int:
        return sum(1 for r in self.records if r.op == op)

    def clear(self) -> None:
        self.records.clear()


@kernel("vmpi.pairwise_reduce")
def _pairwise_reduce(values: list[Any], op: Callable[[Any, Any], Any]) -> Any:
    """Tree-order (pairwise) reduction — the order real MPI trees use.

    Pairwise order matters for floating-point reproducibility claims: it is
    deterministic for a fixed rank count and numerically better conditioned
    than left-to-right folding.

    Backend seam: the numpy backend routes moment merges
    (``moment_merge_op``) to its vectorized tree fold — the *same*
    pairing, so results stay bit-identical.
    """
    vals = list(values)
    if not vals:
        raise ValueError("cannot reduce an empty contribution list")
    while len(vals) > 1:
        nxt = []
        for i in range(0, len(vals) - 1, 2):
            nxt.append(op(vals[i], vals[i + 1]))
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def _scan_fold(values: list[Any], op: Callable[[Any, Any], Any]) -> list[Any]:
    """Inclusive left-fold prefix reduction (MPI_Scan operation order)."""
    out: list[Any] = []
    acc = None
    for v in values:
        acc = v if acc is None else op(acc, v)
        out.append(acc)
    return out


class VirtualComm:
    """A communicator over ``n_ranks`` virtual ranks.

    Functional collectives take a sequence of length ``n_ranks`` holding
    each rank's contribution and return what MPI would deliver. Every call
    is costed on ``network`` and recorded in ``tracker``.
    """

    def __init__(self, n_ranks: int, network: GeminiNetwork | None = None,
                 tracker: CommTracker | None = None) -> None:
        if n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
        self.n_ranks = n_ranks
        self.network = network or GeminiNetwork()
        self.tracker = tracker or CommTracker()

    @property
    def flow(self) -> FlowContext | None:
        """Causal flow the next collectives charge their hops to
        (stored on the tracker — the single recording chokepoint)."""
        return self.tracker.flow

    @flow.setter
    def flow(self, flow: FlowContext | None) -> None:
        self.tracker.flow = flow

    # -- SPMD driver ---------------------------------------------------------

    def run_spmd(self, fn: Callable[..., Any], *per_rank_args: Sequence[Any]) -> list[Any]:
        """Run ``fn(rank, *args_r)`` for every rank; return per-rank results.

        Each entry of ``per_rank_args`` is a length-``n_ranks`` sequence; the
        rank body receives its own slice, mirroring SPMD data locality.
        """
        for i, seq in enumerate(per_rank_args):
            if len(seq) != self.n_ranks:
                raise ValueError(
                    f"per-rank argument {i} has length {len(seq)}, expected {self.n_ranks}"
                )
        return [fn(rank, *(seq[rank] for seq in per_rank_args))
                for rank in range(self.n_ranks)]

    # -- collectives ----------------------------------------------------------

    def _require_all_ranks(self, values: Sequence[Any]) -> None:
        if len(values) != self.n_ranks:
            raise ValueError(
                f"collective needs {self.n_ranks} contributions, got {len(values)}"
            )

    def bcast(self, value: Any, root: int = 0) -> list[Any]:
        """Broadcast ``value`` from ``root``; returns one reference per rank."""
        self._check_root(root)
        nbytes = payload_bytes(value)
        self.tracker.add("bcast", self.n_ranks, nbytes,
                         coll.bcast_time(self.network, self.n_ranks, nbytes))
        return [value] * self.n_ranks

    def reduce(self, values: Sequence[Any], op: Callable[[Any, Any], Any],
               root: int = 0) -> Any:
        """Reduce all contributions to ``root``; returns the reduced value."""
        self._require_all_ranks(values)
        self._check_root(root)
        nbytes = payload_bytes(values[0])
        self.tracker.add("reduce", self.n_ranks, nbytes,
                         coll.reduce_time(self.network, self.n_ranks, nbytes))
        return _pairwise_reduce(list(values), op)

    def allreduce(self, values: Sequence[Any], op: Callable[[Any, Any], Any]) -> list[Any]:
        """All-reduce: every rank receives the reduced value."""
        self._require_all_ranks(values)
        nbytes = payload_bytes(values[0])
        self.tracker.add("allreduce", self.n_ranks, nbytes,
                         coll.allreduce_time(self.network, self.n_ranks, nbytes))
        result = _pairwise_reduce(list(values), op)
        return [result] * self.n_ranks

    def gather(self, values: Sequence[Any], root: int = 0) -> list[Any]:
        """Gather all contributions to ``root`` (returned as a list)."""
        self._require_all_ranks(values)
        self._check_root(root)
        nbytes = max((payload_bytes(v) for v in values), default=0)
        self.tracker.add("gather", self.n_ranks, nbytes,
                         coll.gather_time(self.network, self.n_ranks, nbytes))
        return list(values)

    def allgather(self, values: Sequence[Any]) -> list[list[Any]]:
        """All ranks receive the full contribution list."""
        self._require_all_ranks(values)
        nbytes = max((payload_bytes(v) for v in values), default=0)
        self.tracker.add("allgather", self.n_ranks, nbytes,
                         coll.allgather_time(self.network, self.n_ranks, nbytes))
        full = list(values)
        return [full] * self.n_ranks

    def alltoall(self, matrix: Sequence[Sequence[Any]]) -> list[list[Any]]:
        """Each rank r sends ``matrix[r][s]`` to rank s; returns the transpose."""
        self._require_all_ranks(matrix)
        for r, row in enumerate(matrix):
            if len(row) != self.n_ranks:
                raise ValueError(f"rank {r} row has length {len(row)}, "
                                 f"expected {self.n_ranks}")
        nbytes = payload_bytes(matrix[0][0]) if self.n_ranks else 0
        self.tracker.add("alltoall", self.n_ranks, nbytes,
                         coll.alltoall_time(self.network, self.n_ranks, nbytes))
        return [[matrix[src][dst] for src in range(self.n_ranks)]
                for dst in range(self.n_ranks)]

    def scan(self, values: Sequence[Any], op: Callable[[Any, Any], Any]
             ) -> list[Any]:
        """Inclusive prefix reduction: rank r receives op-fold of ranks 0..r."""
        self._require_all_ranks(values)
        nbytes = payload_bytes(values[0])
        self.tracker.add("scan", self.n_ranks, nbytes,
                         coll.scan_time(self.network, self.n_ranks, nbytes))
        return _scan_fold(list(values), op)

    def exscan(self, values: Sequence[Any], op: Callable[[Any, Any], Any]
               ) -> list[Any]:
        """Exclusive prefix reduction; rank 0 receives None (MPI semantics)."""
        inclusive = self.scan(values, op)
        return [None] + inclusive[:-1]

    def reduce_scatter(self, matrix: Sequence[Sequence[Any]],
                       op: Callable[[Any, Any], Any]) -> list[Any]:
        """Each rank contributes p chunks; rank i receives the op-reduction
        of every rank's chunk i."""
        self._require_all_ranks(matrix)
        for r, row in enumerate(matrix):
            if len(row) != self.n_ranks:
                raise ValueError(f"rank {r} row has length {len(row)}, "
                                 f"expected {self.n_ranks}")
        nbytes = sum(payload_bytes(c) for c in matrix[0])
        self.tracker.add("reduce_scatter", self.n_ranks, nbytes,
                         coll.reduce_scatter_time(self.network, self.n_ranks,
                                                  nbytes))
        return [_pairwise_reduce([matrix[src][dst]
                                  for src in range(self.n_ranks)], op)
                for dst in range(self.n_ranks)]

    def send_time(self, nbytes: int) -> float:
        """Modeled point-to-point time (exposed for the transport layer)."""
        return coll.point_to_point_time(self.network, nbytes)

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self.n_ranks:
            raise ValueError(f"root {root} out of range [0, {self.n_ranks})")
