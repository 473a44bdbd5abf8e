"""Deterministic derivation of RNG seeds for parallel-safe streams."""

import numpy as np


def derived_seed(*parts: int) -> int:
    """Stable 32-bit seed mixed from non-negative integer parts.

    Used to give every (run, graph, ...) its own independent stream so
    results stay bit-identical regardless of evaluation order or parallelism.
    """
    entropy = [int(p) for p in parts]
    if any(p < 0 for p in entropy):
        raise ValueError("seed parts must be non-negative")
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])
