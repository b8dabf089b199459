"""Grid samples of sine-cosine products on the torus, as translates of sine modes.

A mode is a sine product, so every axis with m_j >= 1 has a zero line at
grid index 0. A cosine factor moves the lines half a spacing: cos(m a x) =
sin(m a (x + q)), q a quarter wavelength. The tests of seam handling (wrap
stitching, the distance field's wrap pad, vertices across the seam) use
these translates to get layouts with no zero line on the seam.
"""

from dataclasses import replace

import numpy as np

from nodalab.grid import sample_grid


def cosine_sample(mode, kinds, rule):
    """Sample of prod_j f_j(m_j alpha_j x_j), f_j = sin or cos as kinds[j] says.

    The mode's own sample rolled by N_j / (4 m_j) points on each cosine axis,
    which needs 4 m_j to divide N_j. A factor with m_j = 0 is 1 either way.
    """
    sample = sample_grid(mode, rule)
    values = sample.values
    for j, kind in enumerate(kinds):
        if kind == "cos" and mode.m[j]:
            quarter, rest = divmod(sample.shape[j], 4 * mode.m[j])
            assert rest == 0, "a quarter wavelength must be whole grid steps"
            values = np.roll(values, -quarter, axis=j)
    return replace(sample, values=values)
