"""Count-min merge-compatibility guards and wire-document validation.

Merging sketches with mismatched geometry or hash streams would add
counts of unrelated cells - silently fabricating traffic - so every
mismatch must be refused with a typed :class:`SketchError` before any
state changes.  The histogram clones' guards live with the digest that
carries them (``tests/federation/test_digest.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SketchError
from repro.sketch.countmin import CountMinSketch

VALUES = np.arange(50, dtype=np.uint64)


def make_sketch(width=64, depth=3, seed=0) -> CountMinSketch:
    sketch = CountMinSketch(width=width, depth=depth, seed=seed)
    sketch.update_array(VALUES)
    return sketch


class TestCountMinGuards:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(width=128), dict(depth=4), dict(seed=1)],
        ids=["width", "depth", "seed"],
    )
    def test_mismatch_refused(self, kwargs):
        base = make_sketch()
        other = make_sketch(**kwargs)
        assert not base.compatible_with(other)
        before = base.to_dict()
        with pytest.raises(SketchError, match="different"):
            base.merge(other)
        # Refusal left the sketch untouched.
        assert base.to_dict() == before

    def test_compatible_merges(self):
        base = make_sketch()
        assert base.compatible_with(make_sketch())
        base.merge(make_sketch())
        assert base.total == 2 * len(VALUES)

    def test_from_dict_negative_total_refused(self):
        doc = make_sketch().to_dict()
        doc["total"] = -1
        with pytest.raises(SketchError, match="negative total"):
            CountMinSketch.from_dict(doc)

    def test_from_dict_wrong_cell_count_refused(self):
        doc = make_sketch().to_dict()
        doc["depth"] = doc["depth"] + 1
        with pytest.raises(SketchError, match="cells"):
            CountMinSketch.from_dict(doc)

    def test_from_dict_missing_field_refused(self):
        doc = make_sketch().to_dict()
        del doc["table"]
        with pytest.raises(SketchError, match="malformed"):
            CountMinSketch.from_dict(doc)


    def test_from_dict_checks_the_table_before_sizing_anything(self):
        """A few hundred bytes may declare a 10^4 x 10^8 sketch (7 TiB
        of int64): the cell count is checked against the table that
        was actually sent before anything is allocated."""
        doc = make_sketch().to_dict()
        doc["depth"], doc["width"] = 10_000, 100_000_000
        with pytest.raises(SketchError, match="192 cells"):
            CountMinSketch.from_dict(doc)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("width", True), ("depth", 3.0), ("seed", -1), ("total", "50"),
            ("table", 7), ("table", [[1, 2], [3, 4]]), ("table", {}),
        ],
    )
    def test_from_dict_coerces_nothing(self, field, value):
        doc = make_sketch().to_dict()
        doc[field] = value
        with pytest.raises(
            SketchError, match=f"malformed count-min document: {field}"
        ):
            CountMinSketch.from_dict(doc)

    def test_from_dict_adopts_the_decoded_table(self):
        sketch = make_sketch()
        restored = CountMinSketch.from_dict(sketch.to_dict())
        assert restored.to_dict() == sketch.to_dict()
        restored.update_array(VALUES)  # an owned, writable table
        assert restored.estimate(int(VALUES[0])) == 2
