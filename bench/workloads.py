"""Scenario documents for each workload, generated from the workload seed.

Every workload has a fixed shape (how many documents of each mode, and
their sizes); the seed draws only the values inside the documents (their
own seeds, the (a, c) pairs and the document order).  So the cost of one
pass changes little from seed to seed, and the program under test sees
nothing but the documents.  Why each workload exists, and what each
ROADMAP item is predicted to do to it, is recorded in README.md.
"""

from __future__ import annotations

import random

from oracles import STRIP_MARGIN, in_strip, outside_strip


def _doc_seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 32)


def _pair(rng: random.Random, u_range, v_range, accept) -> list[float]:
    """(a, c) uniform in a cell of u = a - c, v = a + c, kept by accept."""
    while True:
        u, v = rng.uniform(*u_range), rng.uniform(*v_range)
        a, c = round((v + u) / 2.0, 4), round((v - u) / 2.0, 4)
        if accept(a, c):
            return [a, c]


# The cost of period and winding depends on where (a, c) lies in the strip,
# so pairs are stratified: one per cell of a fixed 4 x 3 grid over the strip
# shrunk by the margin, and one beyond each of its three edges (a 20 % share).
_U_EDGES = [-0.9 + 0.45 * k for k in range(5)]
_V_EDGES = [1.1, 1.7, 2.3, 2.9]
_INSIDE_CELLS = [((u0, u1), (v0, v1)) for u0, u1 in zip(_U_EDGES, _U_EDGES[1:])
                 for v0, v1 in zip(_V_EDGES, _V_EDGES[1:])]
_OUTSIDE_CELLS = [((-0.3, 0.3), (0.35, 0.9)),     # a + c < 1
                  ((1.1, 1.8), (1.95, 2.6)),      # a - c > 1
                  ((-1.8, -1.1), (1.95, 2.6))]    # c - a > 1


def calabi_sweep(rng: random.Random) -> list[dict]:
    docs = [{"suite": "calabi", "mode": "branches", "params": {"trials": 20},
             "seed": _doc_seed(rng)} for _ in range(12)]
    docs += [{"suite": "calabi", "mode": "extract", "seed": _doc_seed(rng)}
             for _ in range(2)]
    docs += [{"suite": "calabi", "mode": "residual", "params": {"probes": 25},
              "seed": _doc_seed(rng)} for _ in range(2)]
    return docs


def families_sweep(rng: random.Random) -> list[dict]:
    # 12 pairs inside the strip (three modes each) and 3 outside it, a fixed
    # 20 % share that exercises the ParamViolation guard.  Outside the strip
    # only period and winding run: they report the guard as a failed check.
    inside = [_pair(rng, u, v, lambda a, c: in_strip(a, c, STRIP_MARGIN))
              for u, v in _INSIDE_CELLS]
    outside = [_pair(rng, u, v, lambda a, c: outside_strip(a, c, STRIP_MARGIN))
               for u, v in _OUTSIDE_CELLS]
    docs = []
    for a, c in inside + outside:
        for mode in ("period", "winding"):
            docs.append({"suite": "families", "mode": mode,
                         "params": {"pairs": [[a, c]]}, "seed": _doc_seed(rng)})
    for a, c in inside:
        docs.append({"suite": "families", "mode": "verify",
                     "params": {"a": a, "c": c}, "seed": _doc_seed(rng)})
    return docs


def harmonic_identities(rng: random.Random) -> list[dict]:
    # Each document covers all three dimensions, so its cost depends on its
    # degree and its random polynomials only.  Three documents at degree 2,
    # five at 3 and three at 4 put the median verdict in the middle of the
    # degree-3 documents, not on the boundary between two degrees.
    return [{"suite": "harmonic", "mode": "identities",
             "params": {"dims": [3, 4, 5], "max_degree": d, "trials": 1},
             "seed": _doc_seed(rng)}
            for d, copies in ((2, 3), (3, 5), (4, 3)) for _ in range(copies)]


# Sizes up to (6,2) and (4,3), so that one pass takes a few seconds and each
# document runs several times in a run.  (4,4) and (5,3), where exact
# elimination takes about 5 s each, run in the traced run as baseline probes.
KERNEL_SIZES = ((4, 2), (5, 2), (6, 2), (4, 3))
VERIFY_SIZES = ((4, 1), (4, 2), (5, 2), (4, 3))


def maps_kernel(rng: random.Random) -> list[dict]:
    docs = [{"suite": "maps", "mode": "kernel", "params": {"cases": [[n, m]]},
             "seed": _doc_seed(rng)} for n, m in KERNEL_SIZES]
    docs += [{"suite": "maps", "mode": "verify",
              "params": {"n_ambient": n, "m": m}, "seed": _doc_seed(rng)}
             for n, m in VERIFY_SIZES]
    return docs


GENERATORS = {
    "calabi_sweep": calabi_sweep,
    "families_sweep": families_sweep,
    "harmonic_identities": harmonic_identities,
    "maps_kernel": maps_kernel,
}

# One small verdict per workload, run before timing starts.
WARMUP = {
    "calabi_sweep": {"suite": "calabi", "mode": "branches",
                     "params": {"trials": 5}, "seed": 0},
    "families_sweep": {"suite": "families", "mode": "period",
                       "params": {"pairs": [[1.0, 1.0]]}, "seed": 0},
    "harmonic_identities": {"suite": "harmonic", "mode": "identities",
                            "params": {"dims": [3], "max_degree": 2, "trials": 1},
                            "seed": 0},
    "maps_kernel": {"suite": "maps", "mode": "kernel",
                    "params": {"cases": [[4, 2]]}, "seed": 0},
}


# Verdicts that the traced run adds, to compare its counts with the ROADMAP
# baseline table: 1250 angle evaluations in period_sigma(1, 1), and kernel
# dimensions 255 at (5,3) and 160 at (4,4).
BASELINE_PROBES = {
    "families_sweep": [{"suite": "families", "mode": "period",
                        "params": {"pairs": [[1.0, 1.0]]}, "seed": 0}],
    "maps_kernel": [{"suite": "maps", "mode": "kernel",
                     "params": {"cases": [[5, 3]]}, "seed": 0},
                    {"suite": "maps", "mode": "kernel",
                     "params": {"cases": [[4, 4]]}, "seed": 0}],
}


def generate(workload: str, seed: int) -> list[dict]:
    """The documents of one pass, in a seed-dependent order."""
    rng = random.Random(f"{workload}/{seed}")
    docs = GENERATORS[workload](rng)
    rng.shuffle(docs)
    return docs
