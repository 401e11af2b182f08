"""Hashing, value counts, clone histograms, and sketch substrates."""

from repro.sketch.cloning import CloneSet
from repro.sketch.countmin import CountMinSketch
from repro.sketch.distinct import sorted_distinct
from repro.sketch.hashing import MERSENNE_PRIME, HashFamily, UniversalHash
from repro.sketch.histogram import HistogramSnapshot

__all__ = [
    "MERSENNE_PRIME",
    "HashFamily",
    "UniversalHash",
    "HistogramSnapshot",
    "CloneSet",
    "CountMinSketch",
    "sorted_distinct",
]
