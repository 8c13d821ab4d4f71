"""Small fixed-dimension vectors used by agents and spatial indexes.

The simulations in the paper are two- or three-dimensional; these classes are
deliberately tiny, immutable and dependency-free so they can be used as agent
state, as spatial keys and as dictionary keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Vec2:
    """An immutable two-dimensional vector."""

    x: float = 0.0
    y: float = 0.0

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Vec2":
        return Vec2(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Vec2":
        return Vec2(self.x / scalar, self.y / scalar)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def __iter__(self):
        yield self.x
        yield self.y

    def __getitem__(self, index: int) -> float:
        if index == 0:
            return self.x
        if index == 1:
            return self.y
        raise IndexError(f"Vec2 index out of range: {index}")

    def __len__(self) -> int:
        return 2

    def dot(self, other: "Vec2") -> float:
        """Return the dot product with ``other``."""
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> float:
        """Return the scalar cross product (z component)."""
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        """Return the Euclidean length."""
        return math.hypot(self.x, self.y)

    def norm_sq(self) -> float:
        """Return the squared Euclidean length."""
        return self.x * self.x + self.y * self.y

    def distance_to(self, other: "Vec2") -> float:
        """Return the Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def distance_sq_to(self, other: "Vec2") -> float:
        """Return the squared Euclidean distance to ``other``."""
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    def normalized(self) -> "Vec2":
        """Return a unit vector in the same direction (zero stays zero)."""
        length = self.norm()
        if length == 0.0:
            return Vec2(0.0, 0.0)
        return Vec2(self.x / length, self.y / length)

    def angle(self) -> float:
        """Return the angle of the vector in radians in ``[-pi, pi]``."""
        return math.atan2(self.y, self.x)

    def rotated(self, radians: float) -> "Vec2":
        """Return this vector rotated counter-clockwise by ``radians``."""
        cos_a = math.cos(radians)
        sin_a = math.sin(radians)
        return Vec2(self.x * cos_a - self.y * sin_a, self.x * sin_a + self.y * cos_a)

    def clamped(self, max_norm: float) -> "Vec2":
        """Return the vector scaled down so its length does not exceed ``max_norm``."""
        length = self.norm()
        if length <= max_norm or length == 0.0:
            return self
        return self * (max_norm / length)

    def as_tuple(self) -> tuple[float, float]:
        """Return ``(x, y)``."""
        return (self.x, self.y)

    @staticmethod
    def from_angle(radians: float, length: float = 1.0) -> "Vec2":
        """Build a vector with the given direction and length."""
        return Vec2(math.cos(radians) * length, math.sin(radians) * length)

    @staticmethod
    def zero() -> "Vec2":
        """Return the zero vector."""
        return Vec2(0.0, 0.0)


@dataclass(frozen=True, slots=True)
class Vec3:
    """An immutable three-dimensional vector."""

    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, scalar: float) -> "Vec3":
        return Vec3(self.x * scalar, self.y * scalar, self.z * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Vec3":
        return Vec3(self.x / scalar, self.y / scalar, self.z / scalar)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def __iter__(self):
        yield self.x
        yield self.y
        yield self.z

    def __getitem__(self, index: int) -> float:
        if index == 0:
            return self.x
        if index == 1:
            return self.y
        if index == 2:
            return self.z
        raise IndexError(f"Vec3 index out of range: {index}")

    def __len__(self) -> int:
        return 3

    def dot(self, other: "Vec3") -> float:
        """Return the dot product with ``other``."""
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        """Return the vector cross product."""
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self) -> float:
        """Return the Euclidean length."""
        return math.sqrt(self.norm_sq())

    def norm_sq(self) -> float:
        """Return the squared Euclidean length."""
        return self.x * self.x + self.y * self.y + self.z * self.z

    def distance_to(self, other: "Vec3") -> float:
        """Return the Euclidean distance to ``other``."""
        return (self - other).norm()

    def normalized(self) -> "Vec3":
        """Return a unit vector in the same direction (zero stays zero)."""
        length = self.norm()
        if length == 0.0:
            return Vec3(0.0, 0.0, 0.0)
        return self / length

    def as_tuple(self) -> tuple[float, float, float]:
        """Return ``(x, y, z)``."""
        return (self.x, self.y, self.z)

    @staticmethod
    def zero() -> "Vec3":
        """Return the zero vector."""
        return Vec3(0.0, 0.0, 0.0)
