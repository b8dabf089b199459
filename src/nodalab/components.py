"""Nodal domains: connected sign components of a sampled eigenfunction.

Components of {phi > 0} and {phi < 0} are found with 4-connectivity (no
diagonal adjacency, so the checkerboard of a product mode splits into its
2m x 2n rectangles). Periodic axes are handled by labeling the flat grid and
then joining the labels that face each other across each seam: the domains
are the connected components of that seam graph. A sampled sine factor with
m_j >= 1 has an exact zero hyperplane at index 0, so only a grid whose seam
is signed has pairs to join; scipy.sparse is imported for that case alone,
because importing it with the module adds about 0.1 s to `import nodalab`.
Grid points with |phi| at or below the sign threshold separate domains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import generate_binary_structure, label

from .distance import DistanceField
from .errors import ValidationError
from .grid import GridSample

SIGN_EPS = 1e-12


def _label_periodic(mask: np.ndarray, periodic: bool) -> tuple[np.ndarray, int]:
    structure = generate_binary_structure(mask.ndim, 1)
    lab, k = label(mask, structure=structure)
    if not periodic or k == 0:
        return lab, k
    # the labels that face each other across each axis's seam
    first = np.concatenate([np.take(lab, 0, axis=a).ravel() for a in range(mask.ndim)])
    last = np.concatenate([np.take(lab, -1, axis=a).ravel() for a in range(mask.ndim)])
    both = (first > 0) & (last > 0)
    if not both.any():
        return lab, k
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    edges = (np.ones(int(both.sum())), (first[both], last[both]))
    count, roots = connected_components(coo_matrix(edges, shape=(k + 1, k + 1)), directed=False)
    # label 0 meets no pair, so it stays root 0; the rest number by smallest raw label
    return roots[lab], count - 1


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
    """Max of a full-range distance field over each domain: its inner radius, up to grid error."""
    if field.reach < math.inf:
        raise ValidationError(
            f"inner radii need a full-range field, not one capped at {field.reach:g}"
        )
    if field.dist.shape != comp.labels.shape:
        raise ValidationError("distance field and components use different grids")
    out = np.zeros(comp.count + 1)
    np.maximum.at(out, comp.labels.ravel(), field.dist.ravel())
    return out[1:]
