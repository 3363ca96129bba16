"""Counter-based random streams for reproducible parallel Monte Carlo.

Every stochastic routine in the package draws from a Philox substream keyed
by (master seed, stream path).  Streams are independent of execution order
and thread count, so results depend only on the seed and the task index.
"""

import numpy as np
import numpy.random  # noqa: F401  (numpy 2 defers it to first use; load it here)


def substream(seed, *path):
    """Return a Generator for the Philox substream at (seed, *path).

    The same (seed, path) always yields the same stream, regardless of how
    many other streams were created before it.
    """
    seq = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(seq))


def task_seed(seed, index):
    """Derive a 63-bit child seed for task `index` of master `seed`."""
    return int(substream(seed, index).integers(0, 2**63 - 1))
