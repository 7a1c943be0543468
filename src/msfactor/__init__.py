"""Multi-scale factor modeling of binary network populations.

Whitening-based construction of orthonormal factor frames with
recursive two-way group structure, a matching rank-constrained prior,
and a doubly-intractable posterior sampler (relaxed HMC + exchange).
"""

__version__ = "0.1.0"
