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

``sign_components`` and ``component_inradii`` read the sign masks that
``measures.grid_seeds`` writes in the same chunks as the seeds, so no float
grid is formed. ``sign_components`` labels each sign on its own thread
(scipy's ``label`` releases the GIL) and keeps only the domains' sizes: no
label array outlives the call. The positive domains come first, each
sign's numbered by its smallest label. ``component_inradii`` reads the
largest inner radius: the max over domains of each domain's max of the
distance field is the field's max over the signed points, bit for bit,
which ``distance.max_distance`` reads from the seeds' coordinates.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.ndimage import generate_binary_structure, label

from .distance import ROW_BLOCK_POINTS, max_distance, usable_cores

# annotations only: importing measures here moves it ahead in `import nodalab`,
# which measured about 0.15 MB more RSS after the import
if TYPE_CHECKING:
    from .measures import GridSigns


def _label_periodic(mask: np.ndarray, periodic: bool) -> tuple[np.ndarray, np.ndarray]:
    """scipy's labels of ``mask`` and, per label, its domain: 0 for label 0, and the
    components of the seam graph numbered 1.. by their smallest label."""
    structure = generate_binary_structure(mask.ndim, 1)
    lab, k = label(mask, structure=structure)
    roots = np.arange(k + 1)
    if not periodic or k == 0:
        return lab, roots
    # the labels that face each other across each axis's seam
    first = np.concatenate([np.take(lab, 0, axis=a).ravel() for a in range(mask.ndim)])
    last = np.concatenate([np.take(lab, -1, axis=a).ravel() for a in range(mask.ndim)])
    both = (first > 0) & (last > 0)
    if not both.any():
        return lab, roots
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    edges = (np.ones(int(both.sum())), (first[both], last[both]))
    _, roots = connected_components(coo_matrix(edges, shape=(k + 1, k + 1)), directed=False)
    # label 0 meets no pair, so it stays root 0; the rest number by smallest label
    return lab, roots


def _domain_sizes(mask: np.ndarray, periodic: bool) -> np.ndarray:
    """Points per domain of ``mask`` (int64), in ``_label_periodic``'s order."""
    lab, roots = _label_periodic(mask, periodic)
    # bincount takes an int64 copy of its input: counted a block of rows at a time
    raw = np.zeros(roots.size, dtype=np.int64)
    step = max(1, ROW_BLOCK_POINTS // math.prod(lab.shape[1:]))
    for r in range(0, lab.shape[0], step):
        raw += np.bincount(lab[r : r + step].ravel(), minlength=raw.size)
    sizes = np.zeros(int(roots.max()) + 1, dtype=np.int64)
    np.add.at(sizes, roots, raw)
    return sizes[1:]


@dataclass
class SignComponents:
    """Nodal domains: ``signs`` and ``sizes`` (int64) per domain, the positive ones first."""

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


def sign_components(grid: GridSigns) -> SignComponents:
    """Connected components of {phi > SIGN_EPS} and {phi < -SIGN_EPS}, each sign on its own
    thread (one when a single core is usable); every worker is joined before this returns."""
    seeds = grid.seeds
    with ThreadPoolExecutor(min(2, usable_cores())) as pool:
        pos, neg = pool.map(_domain_sizes, (grid.pos, grid.neg), (seeds.periodic,) * 2)
    signs = np.repeat(np.array([1, -1], dtype=np.int64), [pos.size, neg.size])
    return SignComponents(signs, np.concatenate([pos, neg]), float(np.prod(np.asarray(seeds.h))))


def component_inradii(grid: GridSigns) -> float:
    """The largest inner radius of the sign domains, up to grid error: the max of the
    distance field to the seeds over the signed points (0.0 when none is signed);
    ``inf`` when there are no seeds, as the field is inf everywhere.

    The field is never formed (``distance.max_distance``). Bit for bit the max
    over the domains of ``np.maximum.at`` over the whole field.
    """
    seeds = grid.seeds
    if not seeds.mask.any():
        return math.inf
    return max_distance(seeds, grid.pos | grid.neg)
