"""Nodal domains: connected sign components of a sampled eigenfunction.

Components of {phi > 0} and {phi < 0} are found with 4-connectivity (no
diagonal adjacency, so the checkerboard of a product mode splits into its
2m x 2n rectangles). Periodic axes are handled by labeling the flat grid and
then merging labels that touch across each seam with a union-find pass.
Grid points with |phi| at or below the sign threshold separate domains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import generate_binary_structure, label

from .distance import DistanceField
from .errors import ValidationError
from .grid import GridSample

SIGN_EPS = 1e-12


class UnionFind:
    """Array-backed disjoint sets with path halving."""

    def __init__(self, n: int):
        self.parent = np.arange(n, dtype=np.int64)

    def find(self, a: int) -> int:
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        return int(a)

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _label_periodic(mask: np.ndarray, periodic: bool) -> tuple[np.ndarray, int]:
    structure = generate_binary_structure(mask.ndim, 1)
    lab, k = label(mask, structure=structure)
    if not periodic or k == 0:
        return lab, k
    uf = UnionFind(k + 1)
    for axis in range(mask.ndim):
        first = np.atleast_1d(np.take(lab, 0, axis=axis))
        last = np.atleast_1d(np.take(lab, mask.shape[axis] - 1, axis=axis))
        both = (first > 0) & (last > 0)
        for a, b in zip(first[both].ravel().tolist(), last[both].ravel().tolist()):
            uf.union(a, b)
    roots = np.array([uf.find(i) for i in range(k + 1)], dtype=np.int64)
    uniq, compact = np.unique(roots[1:], return_inverse=True)
    relabel = np.zeros(k + 1, dtype=np.int64)
    relabel[1:] = compact + 1
    return relabel[lab], len(uniq)


@dataclass
class SignComponents:
    """Labeled nodal domains: 0 marks unsigned points, 1..count the domains."""

    labels: np.ndarray
    signs: np.ndarray
    sizes: np.ndarray
    cell_volume: float

    @property
    def count(self) -> int:
        return int(self.signs.size)

    @property
    def areas(self) -> np.ndarray:
        """Grid-quadrature volume of each domain."""
        return self.sizes * self.cell_volume


def sign_components(sample: GridSample) -> SignComponents:
    """Connected components of {phi > SIGN_EPS} and {phi < -SIGN_EPS}."""
    v = sample.values
    labels = np.zeros(v.shape, dtype=np.int64)
    signs = []
    sizes = []
    offset = 0
    for sgn in (1, -1):
        mask = v > SIGN_EPS if sgn == 1 else v < -SIGN_EPS
        lab, k = _label_periodic(mask, sample.periodic)
        if k == 0:
            continue
        labels = np.where(lab > 0, lab + offset, labels)
        counts = np.bincount(lab.ravel(), minlength=k + 1)[1:]
        sizes.extend(counts.tolist())
        signs.extend([sgn] * k)
        offset += k
    return SignComponents(
        labels,
        np.asarray(signs, dtype=np.int64),
        np.asarray(sizes, dtype=np.int64),
        float(np.prod(np.asarray(sample.h))),
    )


def component_inradii(comp: SignComponents, field: DistanceField) -> np.ndarray:
    """Max of the distance field over each domain: its inner radius, up to grid error."""
    if field.dist.shape != comp.labels.shape:
        raise ValidationError("distance field and components use different grids")
    out = np.zeros(comp.count + 1)
    np.maximum.at(out, comp.labels.ravel(), field.dist.ravel())
    return out[1:]
