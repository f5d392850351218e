"""Geographic coordinate handling for real GPS logs.

The mining algorithms work in a planar metric space (all thresholds —
``eps``, ``delta`` — are metres).  Public trajectory datasets such as T-Drive
or GeoLife store WGS-84 latitude/longitude instead, so this module provides

* :func:`haversine_distance` — great-circle distance between two fixes
  (and :func:`haversine_distances`, the same formula over arrays),
* :class:`LocalProjection` — an equirectangular projection around a reference
  point, accurate to well under a metre over a metropolitan area, which is
  all the city-scale gathering mining needs,
* :func:`project_database` — convert a lat/lon trajectory database into the
  planar coordinates the miner expects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from ..geometry.point import Point
from .trajectory import Trajectory, TrajectoryDatabase

__all__ = [
    "EARTH_RADIUS_M",
    "haversine_distance",
    "haversine_distances",
    "LocalProjection",
    "project_database",
]

#: Mean Earth radius in metres (IUGG value).
EARTH_RADIUS_M = 6_371_008.8


def haversine_distance(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in metres between two WGS-84 fixes."""
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlambda = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlambda / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(min(1.0, a)))


def haversine_distances(
    lat1: np.ndarray, lon1: np.ndarray, lat2: np.ndarray, lon2: np.ndarray
) -> np.ndarray:
    """:func:`haversine_distance` element-wise over arrays, operation for
    operation (numpy's transcendentals may differ from :mod:`math` in the
    last bits)."""
    phi1 = np.radians(lat1)
    phi2 = np.radians(lat2)
    dphi = np.radians(lat2 - lat1)
    dlambda = np.radians(lon2 - lon1)
    a = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlambda / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.minimum(1.0, a)))


@dataclass(frozen=True)
class LocalProjection:
    """Equirectangular projection centred on a reference fix.

    ``x`` grows eastwards and ``y`` northwards, both in metres.  Over a city
    (tens of kilometres) the distortion relative to a true geodesic is far
    below the clustering thresholds the paper uses, so this is an adequate
    (and dependency-free) substitute for a full map projection.
    """

    reference_lat: float
    reference_lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.reference_lat <= 90.0:
            raise ValueError("reference latitude must be within [-90, 90]")
        if not -180.0 <= self.reference_lon <= 180.0:
            raise ValueError("reference longitude must be within [-180, 180]")

    @classmethod
    def for_fixes(cls, fixes: Iterable[Tuple[float, float]]) -> "LocalProjection":
        """Projection centred on the centroid of ``(lat, lon)`` fixes."""
        fixes = list(fixes)
        if not fixes:
            raise ValueError("cannot derive a projection from zero fixes")
        lat = sum(f[0] for f in fixes) / len(fixes)
        lon = sum(f[1] for f in fixes) / len(fixes)
        return cls(reference_lat=lat, reference_lon=lon)

    def to_plane(self, lat: float, lon: float) -> Point:
        """Project a WGS-84 fix to local planar metres."""
        cos_ref = math.cos(math.radians(self.reference_lat))
        x = math.radians(lon - self.reference_lon) * EARTH_RADIUS_M * cos_ref
        y = math.radians(lat - self.reference_lat) * EARTH_RADIUS_M
        return Point(x, y)

    def to_geographic(self, point: Point) -> Tuple[float, float]:
        """Invert :meth:`to_plane`; returns ``(lat, lon)``."""
        cos_ref = math.cos(math.radians(self.reference_lat))
        lat = self.reference_lat + math.degrees(point.y / EARTH_RADIUS_M)
        lon = self.reference_lon + math.degrees(point.x / (EARTH_RADIUS_M * cos_ref))
        return (lat, lon)


def project_database(
    database: TrajectoryDatabase,
    projection: Optional[LocalProjection] = None,
) -> Tuple[TrajectoryDatabase, LocalProjection]:
    """Convert a lat/lon database (x = longitude, y = latitude) to metres.

    Parameters
    ----------
    database:
        A trajectory database whose point coordinates are ``(longitude,
        latitude)`` degrees, as produced by the T-Drive / GeoLife readers.
    projection:
        The projection to use; derived from the data's centroid when omitted.

    Returns
    -------
    ``(projected_database, projection)`` — the projection is returned so
    mined patterns can be mapped back to geographic coordinates.
    """
    if projection is None:
        fixes = [
            (point.y, point.x)
            for trajectory in database
            for _, point in trajectory
        ]
        projection = LocalProjection.for_fixes(fixes)

    projected = TrajectoryDatabase()
    for trajectory in database:
        samples = [
            (t, projection.to_plane(lat=point.y, lon=point.x)) for t, point in trajectory
        ]
        projected.add(Trajectory(object_id=trajectory.object_id, samples=samples))
    return projected, projection
