"""Seeded inputs for the three workloads.

The same seed gives the same inputs. The generator uses no program code:
gamma tables list one representative per isomorphism class, found here by
brute force, so the inputs do not change when the program's canonical forms
do. Every workload has a fixed shape (which commands, how many specs, which
support sizes); the seed picks the values, so runs with different seeds do
the same amount of work to within a few per cent.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

# (s, t) pairs whose kst certificates the test suite covers (s + t <= 12),
# split by cost: a run takes one pair from the first group and two from the
# second
KST_SLOW = ((2, 3), (3, 2), (1, 4))
KST_FAST = ((2, 2), (2, 5), (3, 4), (5, 6), (1, 9), (4, 6), (5, 5))

# Objective pools for the search commands, each of near-equal cost for its
# command, so the seed moves the objective but not the run time.
OPT_POOL = ("KP 1,1,1,1", "KP 2,2,1", "SUM 1*KP 2,2 + 1/2*KP 1,1,1,1",
            "SUM 1*KP 3,1 + -1/2*KP 4")
FINITE_POOL = ("KP 3,1", "KP 3,2", "KP 4,1", "SUM 1*KP 2,2 + 1*KP 4")
ORACLE_POOL = ("KP 2,1,1", "KP 3,1", "KP 2,2,1", "KP 3,1,1", "KP 3,2", "SUM 1*KP 2,2 + 1*KP 4",
               "SUM 1*KP 2,1,1 + -1/2*KP 1,1,1,1")

# evaluate: one spec per slot (kind, k, vertices of its graph); every spec
# gets one vector per vector slot
SPEC_SLOTS = (("KP", 4, 8), ("KP", 5, 9), ("SUM", 4, 10), ("SUM", 5, 8), ("table", 4, 9),
              ("table", 5, 10), ("KP", 4, 10), ("KP", 5, 8), ("SUM", 4, 9), ("SUM", 5, 10),
              ("table", 4, 8), ("table", 5, 9))
VECTOR_SLOTS = ((2, False), (3, True), (5, False), (6, True))  # (parts, clique mass?)
# strictness_certificate runs on the vectors without clique mass and with at
# most this many parts; with clique mass its cost swings with the values
STRICTNESS_MAX_PARTS = 3
COEFFS = tuple(Fraction(c) for c in ("1", "1/2", "2", "1/3", "3/2"))


def partitions(n: int, cap: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n, parts non-increasing."""
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    return [(x,) + rest for x in range(min(n, cap), 0, -1) for rest in partitions(n - x, x)]


def certify(seed: int) -> dict:
    rng = random.Random(f"certify-{seed}")
    ops = [
        _op("k311_s", ["certify", "k311"], {"type": "k311"}),
        _op("k2111_s", ["certify", "k2111"], {"type": "k2111"}),
        _op("krt_s", ["certify", "krt", "--r", "2", "--t", "3"], {"type": "krt", "r": 2, "t": 3}),
        _op("krt_s", ["certify", "krt", "--r", "3", "--t", "2"], {"type": "krt", "r": 3, "t": 2}),
    ]
    for s, t in [rng.choice(KST_SLOW)] + rng.sample(KST_FAST, 2):
        ops.append(_op("kst_s", ["certify", "kst", "--s", str(s), "--t", str(t)],
                       {"type": "kst", "s": s, "t": t}))
    return {"workload": "certify", "ops": ops, "files": {}}


def search(seed: int) -> dict:
    rng = random.Random(f"search-{seed}")
    opt, finite, oracle = rng.choice(OPT_POOL), rng.choice(FINITE_POOL), rng.choice(ORACLE_POOL)
    ops = [
        _op("opt_s", ["opt", "--objective", opt, "--max-support", "10", "--starts", "200",
                      "--seed", str(seed)], {"type": "opt", "objective": opt}),
        _op("finite_s", ["opt", "--objective", finite, "--mode", "finite", "--n", "40"],
            {"type": "finite", "objective": finite, "n": 40}),
        _op("oracle_s", ["oracle", "--objective", oracle, "--n", "7"],
            {"type": "oracle", "objective": oracle, "n": 7}),
    ]
    return {"workload": "search", "ops": ops, "files": {}}


def evaluate(seed: int) -> dict:
    rng = random.Random(f"evaluate-{seed}")
    specs, files = [], {}
    for i, (kind, k, n) in enumerate(SPEC_SLOTS):
        if kind == "KP":
            objective = {"kind": "KP", "parts": list(rng.choice(partitions(k)[1:-1]))}
        elif kind == "SUM":
            # one term is the clique or the empty graph, so every SUM pays
            # the same canonical labelling of a fully symmetric pattern
            a = rng.choice(partitions(k)[1:-1])
            b = rng.choice(((k,), (1,) * k))
            objective = {"kind": "SUM", "terms": [[str(rng.choice(COEFFS)), list(a)],
                                                  [str(-rng.choice(COEFFS)), list(b)]]}
        else:
            name = f"table{i}.json"
            files[name] = _table_json(rng, k)
            objective = {"kind": "table", "file": name}
        vectors = []
        for parts, clique in VECTOR_SLOTS:
            x0, xs = _vector(rng, parts, clique)
            supp_star = ([0] if clique else []) + list(range(1, parts + 1))
            i1, i2 = sorted(rng.choice(supp_star) for _ in range(2))
            alpha = Fraction(rng.randint(0, 4), 4) if clique else Fraction(1)
            vectors.append({
                "json": json.dumps({"x0": str(x0), "parts": [str(p) for p in xs]}),
                "flip": [i1, i2],
                "pattern": {"b": {str(j): rng.randint(0, 1) for j in range(1, parts + 1)},
                            "alpha": str(alpha)},
                "strictness": not clique and parts <= STRICTNESS_MAX_PARTS,
            })
        graph = f"graph{i}.txt"
        files[graph] = _graph_text(rng, n)
        specs.append({"objective": objective, "vectors": vectors, "graph": graph,
                      "symmetrise": kind == "KP"})
    return {"workload": "evaluate", "specs": specs, "files": files}


GENERATORS = {"certify": certify, "search": search, "evaluate": evaluate}


def generate(workload: str, seed: int) -> dict:
    return GENERATORS[workload](seed)


def digest(inputs: dict) -> str:
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()


def _op(metric: str, argv: list[str], check: dict) -> dict:
    return {"metric": metric, "argv": argv, "check": check}


def _vector(rng: random.Random, parts: int, clique: bool) -> tuple[Fraction, list[Fraction]]:
    weights = [rng.randint(1, 9) for _ in range(parts + clique)]
    total = sum(weights)
    x0 = Fraction(weights.pop(), total) if clique else Fraction(0)
    return x0, sorted((Fraction(w, total) for w in weights), reverse=True)


def _graph_text(rng: random.Random, n: int) -> str:
    p = rng.uniform(0.3, 0.7)
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return "\n".join([f"n {n}"] + [f"{u} {v}" for u, v in edges]) + "\n"


def _table_json(rng: random.Random, k: int) -> str:
    values = []
    for edges in iso_class_representatives(k):
        q = rng.randint(1, 6)
        values.append({"n": k, "edges": [list(e) for e in edges],
                       "value": str(Fraction(rng.randint(-q, q), q))})
    return json.dumps({"k": k, "values": values})


@lru_cache(maxsize=None)
def iso_class_representatives(k: int) -> list[tuple[tuple[int, int], ...]]:
    """One edge list per isomorphism class of k-vertex graphs, in a fixed
    order: the graphs whose upper-triangle code is least over all labellings."""
    pairs = list(combinations(range(k), 2))
    perms = [{(min(p[u], p[v]), max(p[u], p[v])): i for i, (u, v) in enumerate(pairs)}
             for p in permutations(range(k))]
    least = set()
    for code in range(1 << len(pairs)):
        edges = [e for i, e in enumerate(pairs) if code >> i & 1]
        least.add(min(sum(1 << perm[e] for e in edges) for perm in perms))
    return [tuple(e for i, e in enumerate(pairs) if code >> i & 1) for code in sorted(least)]
