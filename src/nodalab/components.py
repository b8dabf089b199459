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

The domains share one int32 label array, scipy's own label dtype: the
positive domains are 1..k_pos and the negative ones follow them, each sign
numbered by its smallest raw label, and 0 marks the unsigned points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import generate_binary_structure, label

from .distance import ROW_BLOCK_POINTS, Seeds, full_range
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
    """Labeled nodal domains in one int32 array: 0 marks unsigned points, 1..k_pos the
    positive domains and k_pos + 1..count the negative ones; ``signs`` and ``sizes``
    (int64) are indexed by label - 1."""

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
    labels, k_pos = _label_periodic(v > SIGN_EPS, sample.periodic)
    neg, k_neg = _label_periodic(v < -SIGN_EPS, sample.periodic)
    np.add(neg, k_pos, out=labels, where=neg > 0)
    # bincount takes an int64 copy of its input: counted a block of rows at a time
    sizes = np.zeros(k_pos + k_neg + 1, dtype=np.int64)
    step = max(1, ROW_BLOCK_POINTS // math.prod(labels.shape[1:]))
    for r in range(0, labels.shape[0], step):
        sizes += np.bincount(labels[r : r + step].ravel(), minlength=sizes.size)
    sizes = sizes[1:]
    signs = np.repeat(np.array([1, -1], dtype=np.int64), [k_pos, k_neg])
    return SignComponents(labels, signs, sizes, float(np.prod(np.asarray(sample.h))))


def component_inradii(comp: SignComponents, seeds: Seeds) -> np.ndarray:
    """Max of the full-range distance field to ``seeds`` over each domain: its inner radius,
    up to grid error; ``inf`` for every domain when there are no seeds.

    The field is never formed: each block of rows the transform computes is
    folded into its slab's own per-label maxima with ``np.maximum.at``, and
    the slabs' maxima are joined with ``np.maximum``. The certificate still
    reads the slab loop's maximum over every point, unsigned ones (label 0)
    included, and a failed one reruns the transform with fresh maxima. Bit
    for bit ``np.maximum.at`` over ``distance_field(...).dist``.
    """
    if seeds.mask.shape != comp.labels.shape:
        raise ValidationError("seed set and components use different grids")
    if not seeds.mask.any():
        return np.full(comp.count, np.inf)

    def fold(maxima, rows, d):
        np.maximum.at(maxima, comp.labels[rows].ravel(), d.ravel())

    slabs = full_range(seeds, lambda: np.zeros(comp.count + 1), fold)
    return np.maximum.reduce(slabs)[1:]
