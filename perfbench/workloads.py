"""The benchmark's workloads: fixed PDE problems for `blocksolve.cli.main`.

Each workload is one command line of the `blocksolve` program.  `full` is
the size the benchmark measures; `tiny` is the same solver tree on a mesh
small enough for the smoke test.  `l2_error` is the manufactured-solution
error at that size when this benchmark was written, for workloads that
report one.  The full sizes keep one case to a few seconds, so that a run
holds a dozen cases or more and its medians average over the slow drift
in speed of a shared machine.
"""

WORKLOADS = {
    "poisson-schwarz": {
        "full": ["poisson", "--n", "16", "--degree", "4", "--mms",
                 "--options-file", "configs/poisson-schwarz.opts"],
        "tiny": ["poisson", "--n", "4", "--degree", "3", "--mms",
                 "--options-file", "configs/poisson-schwarz.opts"],
        "l2_error": {"full": 2.157e-08, "tiny": 3.363e-04},
    },
    "rb-nested": {
        "full": ["rayleigh-benard", "--n", "6",
                 "--options-file", "configs/rb-iterative.opts"],
        "tiny": ["rayleigh-benard", "--n", "4",
                 "--options-file", "configs/rb-iterative.opts"],
    },
    "poisson-aij-3d": {
        "full": ["poisson", "--n", "6", "--dim", "3", "--degree", "3",
                 "--options-file", "configs/poisson-sor.opts"],
        "tiny": ["poisson", "--n", "2", "--dim", "3", "--degree", "3",
                 "--options-file", "configs/poisson-sor.opts"],
    },
}

# relative distance from the reference L2 error that still passes
L2_RTOL = 0.01
