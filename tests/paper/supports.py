"""The minimum-support grid of the Fig. 9 / Fig. 10 sweep."""

#: Paper minimum supports 3000..10000 scaled by the event scale (0.02).
SUPPORT_GRID = {60: 3000, 100: 5000, 140: 7000, 200: 10_000}
