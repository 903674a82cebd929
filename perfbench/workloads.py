"""Workload definitions and the correctness reference of the egflow benchmark.

Each workload is a `make_config` call; the benchmark seed is passed only as
`make_config(seed=...)`.  The reference values were recorded from the code at
the commit that introduced the benchmark, over seeds 0-4; the tolerances
cover the spread the seed's interface perturbation causes, with a margin, and
are tight enough that a wrong solve, flux or transfer falls outside them.
"""

WORKLOADS = {
    # Assembly-dominated: 409 cells / 875 dofs after the first step, and the
    # mesh changes on 1 step in 100, so per-generation caches hit.
    "rect_fingering": {
        "scenario": "hele_shaw_rect",
        "overrides": {"ratio": 100.0, "t_end": 1.0},
    },
    # Solver-dominated: 6553 cells / 13.3k dofs after the first step, where
    # the Krylov solve and ILU set-up outweigh assembly; 1 mesh change in 20.
    # Run by hand only: not in BENCHMARK.json (see README.md, Workloads).
    "rect_large": {
        "scenario": "hele_shaw_rect",
        "overrides": {"ratio": 100.0, "nx": 32, "ny": 8, "r_min": 2,
                      "r_max": 3, "t_end": 0.2},
    },
    # Adaptation-dominated: the cell budget binds from about step 10, so
    # amr.mark's binary search builds a probe mesh per budget test and the
    # mesh changes on almost every step; per-generation caches miss.  The
    # perm_block scenario draws no random numbers, so the seed has no effect.
    "block_budget": {
        "scenario": "perm_block",
        "overrides": {"r_max": 4, "cell_max": 2500, "t_end": 0.3},
    },
}

# Final-step values checked on every run: key -> (reference, tolerance).
# cells/dofs are compared exactly (tolerance 0); floats by absolute distance.
# `residual` is the largest per-cell local conservation residual on the last
# step, relative to rho0 * max|U.n| * h_max; it must stay below the bound.
REFERENCE = {
    "rect_fingering": {
        "final": {"cells": (409, 0), "dofs": (875, 0),
                  "mass": (12.9835, 0.005), "cmin": (-0.0409, 0.002),
                  "cmax": (1.1372, 0.002), "xtip": (0.0518, 0.002)},
        "residual": 3e-5,
    },
    "rect_large": {
        "final": {"cells": (6553, 0), "dofs": (13325, 0),
                  "mass": (2.52153, 0.0005), "cmin": (-0.0394, 0.002),
                  "cmax": (1.1090, 0.002), "xtip": (0.01005, 0.0005)},
        "residual": 6e-5,
    },
    "block_budget": {
        "final": {"cells": (2473, 0), "dofs": (5484, 0),
                  "mass": (0.2206589, 1e-6), "cmin": (-0.0116982, 1e-6),
                  "cmax": (1.0001018, 1e-6), "xtip": (0.2718470, 1e-6)},
        "residual": 1e-6,
    },
}
