"""Fixture: direct subscripting silenced by noqa comments."""

from repro.registry import miners, readers


def lookup(name):
    miner = miners[name]  # repro: noqa[RPR003]
    reader = readers[name]  # repro: noqa
    return miner, reader
