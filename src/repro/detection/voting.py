"""Clone voting (paper Section II-D).

Each histogram clone that detected a disruption contributes the set of
feature values hashing into its anomalous bins.  Voting keeps a value iff
at least ``V`` of the ``C`` clones contributed it: ``V = 1`` is the
union (most sensitive, most false values), ``V = C`` the intersection
(the short-paper behaviour, fewest false values).  Equations (1)-(3) of
the paper - implemented in :mod:`repro.analysis.voting_model` - bound the
resulting error probabilities.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError


def vote(value_sets: list[np.ndarray], min_votes: int) -> np.ndarray:
    """Feature values contributed by at least ``min_votes`` of the sets.

    Args:
        value_sets: one array of suspicious feature values per clone
            (clones that did not alarm contribute an empty array).
        min_votes: the ``V`` parameter; must satisfy
            ``1 <= V <= len(value_sets)``.

    Returns:
        Sorted unique array of values meeting the vote threshold.
    """
    if not value_sets:
        raise ConfigError("voting requires at least one clone result")
    if not 1 <= min_votes <= len(value_sets):
        raise ConfigError(
            f"vote threshold {min_votes} out of range [1, {len(value_sets)}]"
        )
    values, votes = vote_matrix(value_sets)
    return values[votes >= min_votes]


def vote_matrix(value_sets: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """All candidate values with their vote counts (diagnostics).

    Returns:
        ``(values, votes)`` sorted by value; useful for inspecting how
        close a value was to the threshold.
    """
    non_empty = [
        np.unique(np.asarray(values, dtype=np.uint64))
        for values in value_sets
        if len(values) > 0
    ]
    if not non_empty:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    stacked = np.concatenate(non_empty)
    values, counts = np.unique(stacked, return_counts=True)
    return values, counts.astype(np.int64)
