"""Disk cache for distance transforms, keyed by mode and resolution."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .grid import ResolutionRule
from .reports import CODE_VERSION
from .spectrum import EigenMode


class FieldCache:
    """Stores distance arrays as .npy files under a root directory.

    The key hashes everything that determines the array: the domain, the mode
    indices and factor kinds, the whole resolution rule and the code version.
    Loading never raises; a corrupt or missing entry reads as a miss. Each
    store writes its own temporary file and renames it into place, so
    concurrent writers of one key leave one complete entry.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def key(self, mode: EigenMode, rule: ResolutionRule) -> str:
        payload = {
            "domain": mode.domain.as_dict(),
            "m": list(mode.m),
            "kinds": list(mode.kinds),
            "ppw": rule.points_per_wavelength,
            "h_max": rule.h_max,
            "max_total_points": rule.max_total_points,
            "min_points_per_axis": rule.min_points_per_axis,
            "code_version": CODE_VERSION,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:24]

    def path(self, key: str) -> Path:
        return self.root / f"dist_{key}.npy"

    def load(self, key: str):
        p = self.path(key)
        if not p.exists():
            return None
        try:
            return np.load(p)
        except (OSError, ValueError):
            return None

    def store(self, key: str, dist: np.ndarray) -> Path:
        p = self.path(key)
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=f"{p.stem}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.save(fh, dist)
            os.replace(tmp, p)
        except BaseException:
            os.unlink(tmp)
            raise
        return p
