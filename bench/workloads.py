"""The benchmark's workloads: fixed lists of `pharmonic` CLI runs.

A workload is a list of argument vectors without `--seed`.  The workload
seed picks, for each run, one CLI seed from `CLI_SEEDS`.  `reference.json`
pins one verdict structure per run, and its capture checked that structure
at every pool seed, so a run at any workload seed is checked against
inputs the reference has seen.  The pool
seeds are 100 apart, so the sample points one pool seed draws (seed + i)
never overlap another's.
"""

from __future__ import annotations

import random

WORKLOADS = {
    # The ROADMAP hot spot: almost all of its time is under
    # operators.iterated_laplacian, in nested depth-3 jets.  A faster
    # iterated Laplacian (forward-Laplacian pass, Taylor-mode rules) should
    # move this workload most.
    "iterated_p3": (
        "pharmonic --m 2 --n 2 --p 3 --samples 1",
        "pharmonic --m 1 --n 2 --p 3 --samples 4",
        "dual --m 1 --n 2 --p 3 --radius 0.5 --samples 4",
    ),
    # The same layer used differently: shallow (depth 2) but over the wide
    # full so(4) basis, with 2-3-block sum trees that hold several distinct
    # phi subtrees.  It also runs invariance, non-descent and multi-function
    # conditioned sampling, so a depth-oriented change that costs width
    # shows here.
    "flag_p2": (
        "flag --blocks 1,1,2 --p 2 --samples 2",
        "flag --blocks 2,1,1 --p 2 --samples 2",
        "flag --blocks 2,2 --p 2 --samples 2",
        "dual --m 2 --n 2 --p 2 --radius 0.5 --samples 2",
    ),
    # The bypass workload: it never calls iterated_laplacian.  Its time goes
    # to single Laplacians and gradient pairings through order-1/2 jets and
    # to the closed-form identity residuals on the numpy curve_jets path, so
    # a change to the iterated operator should leave it unchanged.
    "identities": tuple(
        f"calibrate --m 1 --n {N - 1} --samples 10" for N in range(2, 9)
    )
    + tuple(
        f"grassmann --m {m} --n {n} --samples 10"
        for m, n in ((1, 2), (2, 2), (2, 3), (3, 4))
    ),
}

CLI_SEEDS = tuple(range(1000, 1000 + 32 * 100, 100))


def argvs(workload: str, seed: int, cli_seeds=CLI_SEEDS) -> list[list[str]]:
    """The workload's argument vectors, each with a CLI seed drawn from `seed`."""
    rng = random.Random(f"{workload}/{seed}")
    return [
        run.split() + ["--seed", str(rng.choice(cli_seeds))]
        for run in WORKLOADS[workload]
    ]
