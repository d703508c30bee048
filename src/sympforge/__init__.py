"""sympforge: integral symplectic lattice algebra, modified Siegel groups,
tamings and period matrices, polarized self-duality, timelike reduction to
polarized Bogomolny equations, and explicit quantized dyons."""

__version__ = "0.1.0"
