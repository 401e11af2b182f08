"""Hashing, hashed histograms (clones), and sketch substrates."""

from repro.sketch.cloning import CloneSet
from repro.sketch.countmin import CountMinSketch
from repro.sketch.distinct import sorted_distinct, sorted_union
from repro.sketch.hashing import MERSENNE_PRIME, HashFamily, UniversalHash
from repro.sketch.histogram import HashedHistogram, HistogramSnapshot

__all__ = [
    "MERSENNE_PRIME",
    "HashFamily",
    "UniversalHash",
    "HashedHistogram",
    "HistogramSnapshot",
    "CloneSet",
    "CountMinSketch",
    "sorted_distinct",
    "sorted_union",
]
