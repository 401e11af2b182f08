"""Fixture: registry lookups through the .get API."""

from repro.registry import miners, readers


def lookup(name):
    miner = miners.get(name)
    reader = readers.get(name)
    return miner, reader
