"""Benchmark inputs: the generated chain family and corrupted datasets.

A chain of n orbits A0 < ... < A(n-1) with dim Ai = i.  Every group is
trivial except the top one, which is Z/2 with irreps (1) and (1^2).  hat
reverses the chain, fourier follows hat on the (1) sheaves and fixes the
top sign sheaf, the catalog's az map follows hat and fixes the sign
representation, every KL value between (1) sheaves is 1, and
P(Ai <- (top,(1^2))) is 1 exactly when n-1-i is even.  The special piece is
the whole chain.  Such a chain passes validate_dataset and every verify
check, and its answer has a closed form (see reference.py).

The seed only permutes the order of KL records, covers and catalog entries;
the dataset it describes is the same for every seed.
"""

import copy
import json
import os
import random

TRIVIAL = {"name": "trivial", "irreps": [["(1)", 1]]}
Z2 = {"name": "Z/2", "irreps": [["(1)", 1], ["(1^2)", 1]]}
SIGN = "(1^2)"


def orbit_id(i):
    return f"A{i}"


def chain_doc(n, seed):
    """The n-orbit chain, with record order drawn from (seed, n)."""
    rng = random.Random(f"chain:{seed}:{n}")
    ids = [orbit_id(i) for i in range(n)]
    top = ids[-1]
    orbits = [{"id": a, "dim": i, "group": copy.deepcopy(TRIVIAL)} for i, a in enumerate(ids)]
    orbits[-1]["group"] = copy.deepcopy(Z2)
    covers = [[ids[i], ids[i + 1]] for i in range(n - 1)]
    half = range((n + 1) // 2)
    hat_pairs = [[ids[i], ids[n - 1 - i]] for i in half]
    fourier = [[[ids[i], "(1)"], [ids[n - 1 - i], "(1)"]] for i in half]
    fourier.append([[top, SIGN], [top, SIGN]])
    kl = []
    for j in range(n):
        for i in range(j):
            kl.append({"target": [ids[i], "(1)"], "source": [ids[j], "(1)"],
                       "value": 1, "provenance": "reconstructed"})
    for i in range(n - 1):
        kl.append({"target": [ids[i], "(1)"], "source": [top, SIGN],
                   "value": 1 if (n - 1 - i) % 2 == 0 else 0,
                   "provenance": "reconstructed"})
    catalog = [{"id": f"R{i}", "param": [ids[i], "(1)"], "az": f"R{n - 1 - i}",
                "iwahori_spherical": True, "unitary": True} for i in range(n)]
    catalog.append({"id": "Rsign", "param": [top, SIGN], "az": "Rsign",
                    "iwahori_spherical": True, "unitary": True})
    for part in (kl, covers, catalog):
        rng.shuffle(part)
    return {
        "schema_version": 1, "name": f"chain{n}", "ambient_dim": n - 1,
        "orbits": orbits, "covers": covers,
        "duality": {"hat": hat_pairs, "fourier": fourier},
        "kl": kl, "catalog": catalog,
        "special_piece": list(ids),
        "arthur_type": [{"label": f"psi_{i}", "langlands": a} for i, a in enumerate(ids)],
        "conormal_dense_exceptions": [],
        "b_function": ["-1"],
    }


def corrupt_kl(doc, target, source, value):
    """Copy of doc with the KL record target <- source set to value."""
    out = copy.deepcopy(doc)
    hits = [r for r in out["kl"] if r["target"] == list(target) and r["source"] == list(source)]
    if len(hits) != 1:
        raise ValueError(f"expected one KL record {target} <- {source}, found {len(hits)}")
    hits[0]["value"] = value
    return out


def write_doc(doc, directory, name):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path
