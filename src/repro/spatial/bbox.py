"""Axis-aligned bounding boxes in arbitrary dimension.

Bounding boxes describe visible regions, reachable regions, partition owned
regions and range queries against the spatial indexes.  A box is stored as a
tuple of per-dimension ``(low, high)`` intervals and is immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class BBox:
    """An axis-aligned box given by per-dimension closed intervals."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        normalized = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        for lo, hi in normalized:
            if lo > hi:
                raise ValueError(f"BBox interval has low > high: ({lo}, {hi})")
        object.__setattr__(self, "intervals", normalized)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_bounds(lows: Sequence[float], highs: Sequence[float]) -> "BBox":
        """Build a box from parallel sequences of lower and upper bounds."""
        if len(lows) != len(highs):
            raise ValueError("lows and highs must have the same length")
        return BBox(tuple(zip(map(float, lows), map(float, highs))))

    @staticmethod
    def around(point: Sequence[float], radii: Sequence[float] | float) -> "BBox":
        """Build a box centered at ``point`` extending ``radii`` in each dimension."""
        if isinstance(radii, (int, float)):
            radii = [float(radii)] * len(point)
        if len(radii) != len(point):
            raise ValueError("radii must match the point dimensionality")
        return BBox(tuple((p - r, p + r) for p, r in zip(point, radii)))

    @staticmethod
    def of_points(points: Iterable[Sequence[float]]) -> "BBox":
        """Return the tightest box containing all ``points``."""
        points = list(points)
        if not points:
            raise ValueError("cannot build a BBox from an empty point set")
        dim = len(points[0])
        lows = [min(p[d] for p in points) for d in range(dim)]
        highs = [max(p[d] for p in points) for d in range(dim)]
        return BBox.from_bounds(lows, highs)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Number of dimensions."""
        return len(self.intervals)

    @property
    def lows(self) -> tuple[float, ...]:
        """Per-dimension lower bounds."""
        return tuple(lo for lo, _ in self.intervals)

    @property
    def highs(self) -> tuple[float, ...]:
        """Per-dimension upper bounds."""
        return tuple(hi for _, hi in self.intervals)

    def side(self, dimension: int) -> float:
        """Length of the box along ``dimension``."""
        lo, hi = self.intervals[dimension]
        return hi - lo

    def center(self) -> tuple[float, ...]:
        """Center point of the box."""
        return tuple((lo + hi) / 2.0 for lo, hi in self.intervals)

    def volume(self) -> float:
        """Product of the side lengths."""
        result = 1.0
        for lo, hi in self.intervals:
            result *= hi - lo
        return result

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains_point(self, point: Sequence[float]) -> bool:
        """Return True when ``point`` lies inside the box (closed intervals)."""
        if len(point) != self.dim:
            raise ValueError("point dimensionality does not match the box")
        return all(lo <= p <= hi for p, (lo, hi) in zip(point, self.intervals))

    def contains_box(self, other: "BBox") -> bool:
        """Return True when ``other`` is entirely inside this box."""
        self._check_dim(other)
        return all(
            lo <= olo and ohi <= hi
            for (lo, hi), (olo, ohi) in zip(self.intervals, other.intervals)
        )

    def intersects(self, other: "BBox") -> bool:
        """Return True when the two boxes overlap (closed intervals)."""
        self._check_dim(other)
        return all(
            lo <= ohi and olo <= hi
            for (lo, hi), (olo, ohi) in zip(self.intervals, other.intervals)
        )

    # ------------------------------------------------------------------
    # Combinators
    # ------------------------------------------------------------------
    def union(self, other: "BBox") -> "BBox":
        """Return the tightest box containing both boxes."""
        self._check_dim(other)
        return BBox(
            tuple(
                (min(lo, olo), max(hi, ohi))
                for (lo, hi), (olo, ohi) in zip(self.intervals, other.intervals)
            )
        )

    def expanded(self, margins: Sequence[float] | float) -> "BBox":
        """Return the box grown by ``margins`` on every side."""
        if isinstance(margins, (int, float)):
            margins = [float(margins)] * self.dim
        if len(margins) != self.dim:
            raise ValueError("margins must match the box dimensionality")
        return BBox(
            tuple((lo - m, hi + m) for (lo, hi), m in zip(self.intervals, margins))
        )

    def clamp_point(self, point: Sequence[float]) -> tuple[float, ...]:
        """Return ``point`` clamped to lie within the box."""
        if len(point) != self.dim:
            raise ValueError("point dimensionality does not match the box")
        return tuple(
            min(max(p, lo), hi) for p, (lo, hi) in zip(point, self.intervals)
        )

    def split(self, dimension: int, value: float) -> tuple["BBox", "BBox"]:
        """Split the box at ``value`` along ``dimension`` into (low, high) halves."""
        lo, hi = self.intervals[dimension]
        if not lo <= value <= hi:
            raise ValueError(f"split value {value} outside the interval ({lo}, {hi})")
        left = list(self.intervals)
        right = list(self.intervals)
        left[dimension] = (lo, value)
        right[dimension] = (value, hi)
        return BBox(tuple(left)), BBox(tuple(right))

    def min_distance_to_point(self, point: Sequence[float]) -> float:
        """Euclidean distance from ``point`` to the nearest point of the box."""
        if len(point) != self.dim:
            raise ValueError("point dimensionality does not match the box")
        total = 0.0
        for p, (lo, hi) in zip(point, self.intervals):
            if p < lo:
                total += (lo - p) ** 2
            elif p > hi:
                total += (p - hi) ** 2
        return total ** 0.5

    def _check_dim(self, other: "BBox") -> None:
        if self.dim != other.dim:
            raise ValueError(
                f"dimensionality mismatch: {self.dim} vs {other.dim}"
            )
