"""The benchmark's workloads: one user pipeline each, chosen so that each layer
likely to be optimised carries most of the time in one workload and little or
none in another.

Every workload runs `simga simrank` on generated text files, then
`simga train --sim <dump>` for a fixed number of epochs (`--patience inf`),
and reads the test accuracy from report.json. `acc_margin` is the margin over
the majority-class share of the test split that the accuracy must clear.
`smoke` overrides give a seconds-long version for the benchmark's own tests.
"""

WORKLOADS = {
    "push-hetero": {
        "why": "the paper's target case: labels learnable only through S, and the "
        "local push dominates the pipeline",
        "graph": {"family": "ring", "n": 4000, "classes": 4},
        "mode": "approx",
        "eps": 0.1,
        "k": 64,
        "epochs": 100,
        "acc_margin": 0.1,
        "smoke": {"graph": {"family": "ring", "n": 800, "classes": 4}},
    },
    "exact-dense": {
        "why": "bypasses the push: dense fixed point, dense top-k and an ~8 MB "
        "similarity dump written and read back",
        "graph": {"family": "ring", "n": 3000, "classes": 4},
        "mode": "exact",
        "eps": 0.1,
        "k": 1024,
        "epochs": 100,
        "acc_margin": 0.1,
        "smoke": {"graph": {"family": "ring", "n": 800, "classes": 4}},
    },
    "train-wide": {
        "why": "near-identity S on a wide sparse graph: epochs, Adam over arrays "
        "larger than the LLC, and text ingest dominate",
        "graph": {"family": "uniform", "n": 40000, "degree": 8, "classes": 4,
                  "features": 32, "signal": 2.0},
        "mode": "approx",
        "eps": 0.1,
        "k": 64,
        "epochs": 30,
        "acc_margin": 0.1,
        "smoke": {"graph": {"family": "uniform", "n": 2000, "degree": 8, "classes": 4,
                            "features": 32, "signal": 2.0}},
    },
}


def workload(name: str, smoke: bool = False) -> dict:
    """The spec of a named workload, with its smoke overrides applied when asked."""
    spec = dict(WORKLOADS[name])
    overrides = spec.pop("smoke")
    if smoke:
        spec.update(overrides)
    return spec
