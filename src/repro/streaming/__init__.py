"""Streaming extraction: the paper's Section V open problem, made runnable.

Section V of the paper names "optimizing and evaluating frequent
item-set mining for dealing with big network traffic data including
stream processing" as future work.  This package is that operating
mode.  It maps onto the paper as follows:

* :class:`~repro.streaming.assembler.IntervalAssembler` - the
  measurement intervals of Section II-C, recovered online: chunked flow
  records are binned into fixed-length windows and released by a
  watermark, with bounded buffering for out-of-order arrivals.
* :class:`~repro.core.session.ExtractionSession`
  (:func:`repro.api.session`) - the Fig. 3 pipeline (histogram clone
  detectors -> voting -> union meta-data -> flow prefiltering ->
  item-set mining) stepped one completed interval at a time.  Memory
  is bounded by the interval/window size, never the trace length.
  It is the one session: :func:`repro.api.extract` feeds it a stored
  trace's intervals in order.
* ``window_intervals > 1`` switches the mining stage to the
  sliding-window mode of Section V (Li & Deng's sliding-window Eclat is
  the cited precedent), via
  :class:`~repro.mining.streaming.SlidingWindowMiner`.

With the default one-shot mining mode a chunked stream
(:func:`repro.api.stream`) is byte-identical to
:func:`repro.api.extract` on the same trace, as long as every flow
reaches its interval before the watermark closes it - i.e. the stream
is time-ordered across interval boundaries, or ``max_delay_seconds``
covers its reordering.  Flows that miss that window are *dropped and
counted* (``late_dropped``); :func:`repro.api.extract` windows the
stored trace before feeding it, so it never drops one.  A non-zero
count is the signal that the two diverged.
``tests/streaming/test_equivalence.py`` holds the invariant in both
directions.
"""

from repro.core.session import StreamExtraction
from repro.streaming.assembler import IntervalAssembler

__all__ = [
    "IntervalAssembler",
    "StreamExtraction",
]
