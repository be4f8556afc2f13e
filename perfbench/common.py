"""Workload definitions shared by run.py and its child processes.

Nothing here imports trigpos: run.py only spawns processes that do, so it
never warms the package's in-process caches.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED_PATH = HERE / "pinned.json"

# The grid intervals of `trigpos verify thm-2-3` and `thm-1-3`.
_TINY = Fraction(1, 10**12)
INTERVALS = {
    "U": (Fraction(1, 1000), Fraction(math.pi) / 2 + _TINY),
    "varsigma": (Fraction(1, 1000), Fraction(math.pi) - Fraction(1, 1000) + _TINY),
}
VARSIGMA_RHO = Fraction(1, 3)

# (family, mu input) pairs of the grid sweep.  Each family gets the two
# pinned enclosures of its own critical exponent and one exact exponent
# above it, so the exact inputs end `refuted` for all but the smallest n.
COMBOS = (
    ("U", "mu23-1e-9"),
    ("U", "mu23-1e-20"),
    ("U", "9/10"),
    ("varsigma", "nu13-1e-9"),
    ("varsigma", "nu13-1e-20"),
    ("varsigma", "3/5"),
)
SWEEP_NMAX = 100
SWEEP_BLOCK = 10  # n values per block; each block gives one n to each combo

# The two proof workloads: fixed CLI arguments and the checks each report
# must hold, every one with status "pass", exit code 0.
PROOFS = {
    "proof-2-3": {
        "argv": ["verify", "thm-2-3", "--nmax", "90", "--json"],
        "enclosure_key": "mu",
        "reference": "mu_star_2_3",
        "checks": [
            "closed-form-n1", "sturm-P-near-0", "sturm-P-mid", "sturm-Q",
            "sturm-R", "small-angle-constant", "wedge-monotone",
            "pq-factors-decreasing", "cosine-integral-minima", "chi-integral",
            "master-bound", "grid-U",
        ],
    },
    "proof-1-3": {
        "argv": ["verify", "thm-1-3", "--nmax", "10", "--json"],
        "enclosure_key": "nu",
        "reference": "nu_star_1_3",
        "checks": [
            "sturm-q1", "sturm-q2", "sturm-q3", "sturm-q3-derived", "bound-1",
            "bound-2", "bound-31", "bound-32", "bound-33", "neighborhood-scan",
            "grid-varsigma",
        ],
    },
}
WORKLOADS = tuple(PROOFS) + ("grid-sweep",)


def load_pinned() -> dict:
    with open(PINNED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def sweep_requests(seed: int) -> list[dict]:
    """The grid-sweep request list; a function of the seed alone.

    1..SWEEP_NMAX is cut into blocks of SWEEP_BLOCK consecutive n.  From
    each block the seed draws one distinct n per combo, so n is uniform on
    1..SWEEP_NMAX, every combo gets one n from every block, and each seed
    does nearly the same amount of work.  The seed also picks the execution
    order, which shares mu inputs between requests but never walks
    ascending prefixes.
    """
    rng = random.Random(seed)
    requests = []
    for start in range(1, SWEEP_NMAX + 1, SWEEP_BLOCK):
        block = rng.sample(range(start, start + SWEEP_BLOCK), len(COMBOS))
        for n, (family, mu) in zip(block, COMBOS):
            requests.append({"family": family, "mu": mu, "n": n})
    rng.shuffle(requests)
    return requests


def digest(obj) -> str:
    """Short content hash of a JSON-serialisable work list."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
