"""Helpers shared by the test modules."""

from batchlab import causal


def index_scheme(k_b: int, k_g: int) -> causal.DiscretizationScheme:
    """The scheme whose batch-size levels are the bin indices ``0..k_b-1`` and
    whose generalization representatives are ``0..k_g-1``. On it, hand-built
    tables are queried by bin index, and a query's expected outcome is the
    mean of its outcome bin index."""
    return causal.DiscretizationScheme(
        bins={
            causal.VAR_BATCH: causal.DiscreteBinning(levels=tuple(range(k_b))),
            causal.VAR_GENERALIZATION: causal.ContinuousBinning(
                cuts=tuple(g + 0.5 for g in range(k_g - 1)),
                representatives=tuple(float(g) for g in range(k_g)),
            ),
        }
    )
