"""SON two-pass partitioned frequent item-set mining.

The Savasere-Omiecinski-Navathe scheme turns any exact in-memory miner
into a data-parallel one:

1. **Candidate pass** - split the transactions into shards and mine each
   shard independently at the proportionally scaled threshold
   ``ceil(s * |shard| / |D|)``.  Every globally frequent item-set is
   locally frequent in at least one shard (pigeonhole over the per-shard
   supports), so the union of the local answers is a candidate superset.
2. **Counting pass** - count the exact global support of every candidate
   with one vectorized scan per shard and keep those meeting ``s``.

Both passes are embarrassingly parallel and run on the pluggable
executor layer (:mod:`repro.parallel.executor`).  The output is provably
identical - same item-sets, same supports - to running ``apriori`` /
``eclat`` / ``fpgrowth`` on the unpartitioned input, which the property
suite asserts; only the ``algorithm`` tag of the result differs.
"""

from __future__ import annotations

from repro.errors import MiningError
from repro.mining.partition import (
    count_candidates,
    local_min_support,
    merge_candidates,
    merge_results,
    partition_transactions,
)
from repro.mining.result import MiningResult
from repro.mining.transactions import TransactionSet
from repro.obs.trace import current_span, inject, worker_span
from repro.parallel.executor import Executor, SerialExecutor

def _resolve_local_miner(name: str):
    """A local (per-shard) miner by name, via the miners registry.

    "son" itself is excluded - partitioning the partitions would
    recurse - and unknown names surface as :class:`MiningError` with
    the valid choices, like every other mining input error.
    """
    from repro.errors import RegistryError
    from repro.registry import miners

    if name == "son":
        raise MiningError(
            "'son' cannot be its own local miner; choose an exact "
            f"in-memory miner: {sorted(n for n in miners if n != 'son')}"
        )
    try:
        return miners.get(name)
    except RegistryError as exc:
        raise MiningError(f"unknown local miner: {exc}") from exc


def _mine_shard(
    task: tuple[TransactionSet, int, str, dict | None, int],
) -> tuple[list[tuple[int, ...]], dict | None]:
    """Candidate-pass worker: locally frequent item-sets of one shard.

    Module-level with a single tuple argument so the process backend can
    pickle it.  The miner is re-resolved by name in the worker: built-in
    and entry-point miners resolve in any process, while miners
    registered at runtime require the serial or thread backend (the
    registration lives only in the registering process).

    The trace carrier (``None`` when tracing is off) crosses the
    process boundary inside the task tuple; the finished span record
    travels back with the result for the caller to adopt - worker
    processes cannot touch the parent's tracer.
    """
    shard, shard_support, local_miner, carrier, index = task
    with worker_span(
        "mining.shard",
        carrier,
        phase="mine",
        shard=index,
        transactions=len(shard),
    ) as record:
        result = _resolve_local_miner(local_miner)(
            shard, shard_support, maximal_only=False
        )
    return list(result.all_frequent), record


def _count_shard(
    task: tuple[TransactionSet, list[tuple[int, ...]], dict | None, int],
) -> tuple[dict[tuple[int, ...], int], dict | None]:
    """Counting-pass worker: exact candidate supports on one shard."""
    shard, candidates, carrier, index = task
    with worker_span(
        "mining.shard",
        carrier,
        phase="count",
        shard=index,
        candidates=len(candidates),
    ) as record:
        counts = count_candidates(shard, candidates)
    return counts, record


def son(
    transactions: TransactionSet,
    min_support: int,
    maximal_only: bool = True,
    partitions: int | None = None,
    executor: Executor | None = None,
    local_miner: str = "apriori",
) -> MiningResult:
    """Mine frequent item-sets with the partitioned two-pass scheme.

    Args:
        transactions: encoded flow transactions.
        min_support: absolute minimum support ``s`` (flow count).
        maximal_only: emit only maximal item-sets (the paper's modified
            output).
        partitions: number of transaction shards; defaults to the
            executor's worker count (1 shard degenerates to the local
            miner plus a verification pass).
        executor: executor to fan the passes out on; defaults to a
            fresh :class:`~repro.parallel.executor.SerialExecutor`.
        local_miner: exact miner for the candidate pass ("apriori",
            "eclat", "fpgrowth", or any miner registered with
            :data:`repro.registry.miners` except "son" itself).

    Returns:
        A :class:`~repro.mining.result.MiningResult` equivalent to the
        serial miners' output (``algorithm`` is tagged "son").
    """
    if min_support < 1:
        raise MiningError(f"min_support must be >= 1: {min_support}")
    # Fail fast in the caller, before any shard work is dispatched.
    _resolve_local_miner(local_miner)
    own_executor = executor is None
    if executor is None:
        executor = SerialExecutor()
    try:
        n = len(transactions)
        if partitions is None:
            partitions = max(1, executor.jobs)
        shards = partition_transactions(transactions, partitions)
        # Capture the ambient span once; the carrier rides in every
        # task tuple so worker-side shard spans parent under the
        # interval that dispatched them, across any backend.
        carrier = inject()
        ambient = current_span()
        mined = executor.map(
            _mine_shard,
            [
                (shard, local_min_support(min_support, len(shard), n),
                 local_miner, carrier, i)
                for i, shard in enumerate(shards)
            ],
        )
        candidate_lists = [payload for payload, _ in mined]
        candidates = merge_candidates(candidate_lists)
        counted = executor.map(
            _count_shard,
            [
                (shard, candidates, carrier, i)
                for i, shard in enumerate(shards)
            ],
        )
        shard_counts = [payload for payload, _ in counted]
        if ambient is not None:
            ambient.tracer.adopt(
                [record for _, record in mined]
                + [record for _, record in counted]
            )
        return merge_results(
            shard_counts,
            n_transactions=n,
            min_support=min_support,
            maximal_only=maximal_only,
        )
    finally:
        if own_executor:
            executor.close()
