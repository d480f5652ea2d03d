"""Deterministic random-number plumbing.

Every stochastic component in the reproduction receives randomness explicitly.
The helpers here derive independent, reproducible streams from a single root
seed so that, e.g., the worker-arrival process and the judgment noise of a
campaign do not share (and therefore perturb) one another's stream.

Streams are derived by hashing the root seed together with a string *label*,
which keeps derivations stable across refactorings: adding a new consumer with
a new label never shifts the draws seen by existing consumers.
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional

import numpy as np

_MASK_64 = (1 << 64) - 1


def spawn_seed(root_seed: int, label: str) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a string ``label``.

    The derivation is a SHA-256 hash, so child seeds are statistically
    independent for distinct labels and stable across platforms and Python
    versions (unlike ``hash()``).
    """
    payload = f"{root_seed}:{label}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little") & _MASK_64


def derive_rng(root_seed: int, label: str) -> np.random.Generator:
    """Return a numpy Generator seeded from ``(root_seed, label)``."""
    return np.random.default_rng(spawn_seed(root_seed, label))


def derive_random(root_seed: int, label: str) -> random.Random:
    """Return a stdlib ``random.Random`` seeded from ``(root_seed, label)``."""
    return random.Random(spawn_seed(root_seed, label))


def roster_stream(root_entropy: int, index: int) -> np.random.Generator:
    """The RNG stream of roster slot ``index`` in a fan-out rooted at
    ``root_entropy``: child ``index`` of ``SeedSequence(root_entropy).spawn``,
    built on its own so a roster never holds one stream per slot. Slot i
    draws the same stream however the roster is split, executed or resumed.
    """
    return np.random.default_rng(
        np.random.SeedSequence(root_entropy, spawn_key=(index,))
    )


class SeedSequenceFactory:
    """Hands out labelled child RNGs derived from one root seed.

    The factory remembers which labels were used so duplicate requests for the
    same label return *fresh* streams (suffixed with an occurrence counter)
    rather than silently aliasing — two workers asking for ``"behavior"`` must
    not act identically.
    """

    def __init__(self, root_seed: int):
        self.root_seed = int(root_seed)
        self._counts: dict[str, int] = {}

    def _next_label(self, label: str) -> str:
        count = self._counts.get(label, 0)
        self._counts[label] = count + 1
        if count == 0:
            return label
        return f"{label}#{count}"

    def rng(self, label: str) -> np.random.Generator:
        """Return a fresh numpy Generator for ``label``."""
        return derive_rng(self.root_seed, self._next_label(label))

    def random(self, label: str) -> random.Random:
        """Return a fresh stdlib Random for ``label``."""
        return derive_random(self.root_seed, self._next_label(label))

    def seed(self, label: str) -> int:
        """Return a fresh integer child seed for ``label``."""
        return spawn_seed(self.root_seed, self._next_label(label))

    def child(self, label: str) -> "SeedSequenceFactory":
        """Return a sub-factory rooted at a child seed."""
        return SeedSequenceFactory(self.seed(label))


def coerce_rng(
    rng: Optional[np.random.Generator], seed: Optional[int] = None
) -> np.random.Generator:
    """Normalize the common ``rng=None, seed=None`` signature.

    Priority: an explicit generator wins; otherwise a seed (or 0) is used.
    """
    if rng is not None:
        return rng
    return np.random.default_rng(0 if seed is None else seed)
