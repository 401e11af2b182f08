"""Fixture: direct registry subscripting."""

from repro.registry import miners, readers


def lookup(name):
    miner = miners[name]
    reader = readers[name]
    return miner, reader
