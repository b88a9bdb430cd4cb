"""A family of valid chain datasets that grows with the orbit count.

Orbits A0 < ... < A(n-1) with dim Ai = i.  Every group is trivial except
the top one, which is Z/2 with irreps (1) and (1^2).  hat reverses the
chain, fourier follows hat on the (1) sheaves and fixes the top sign sheaf,
and the catalog's az map does the same.  P(Ai <- Aj) = 1 for all i < j and
P(Ai <- (top,(1^2))) = 1 exactly when n-1-i is even.  The special piece is
the whole chain.  Such a chain passes validate_dataset.
"""

import copy

SIGN = "(1^2)"


def orbit_id(i):
    return f"A{i}"


def chain_doc(n):
    ids = [orbit_id(i) for i in range(n)]
    top = ids[-1]
    orbits = [{"id": a, "dim": i, "group": {"name": "trivial", "irreps": [["(1)", 1]]}}
              for i, a in enumerate(ids)]
    orbits[-1]["group"] = {"name": "Z/2", "irreps": [["(1)", 1], [SIGN, 1]]}
    half = range((n + 1) // 2)
    fourier = [[[ids[i], "(1)"], [ids[n - 1 - i], "(1)"]] for i in half]
    fourier.append([[top, SIGN], [top, SIGN]])
    kl = [{"target": [ids[i], "(1)"], "source": [ids[j], "(1)"],
           "value": 1, "provenance": "reconstructed"}
          for j in range(n) for i in range(j)]
    kl += [{"target": [ids[i], "(1)"], "source": [top, SIGN],
            "value": 1 if (n - 1 - i) % 2 == 0 else 0, "provenance": "reconstructed"}
           for i in range(n - 1)]
    catalog = [{"id": f"R{i}", "param": [ids[i], "(1)"], "az": f"R{n - 1 - i}",
                "iwahori_spherical": True, "unitary": True} for i in range(n)]
    catalog.append({"id": "Rsign", "param": [top, SIGN], "az": "Rsign",
                    "iwahori_spherical": True, "unitary": True})
    return {
        "schema_version": 1, "name": f"chain{n}", "ambient_dim": n - 1,
        "orbits": orbits,
        "covers": [[ids[i], ids[i + 1]] for i in range(n - 1)],
        "duality": {"hat": [[ids[i], ids[n - 1 - i]] for i in half], "fourier": fourier},
        "kl": kl, "catalog": catalog,
        "special_piece": list(ids),
        "arthur_type": [{"label": f"psi_{i}", "langlands": a} for i, a in enumerate(ids)],
        "conormal_dense_exceptions": [],
        "b_function": ["-1"],
    }


def with_kl_value(doc, target, source, value):
    """Copy of doc with the KL record target <- source set to value."""
    out = copy.deepcopy(doc)
    hits = [r for r in out["kl"]
            if r["target"] == list(target) and r["source"] == list(source)]
    assert len(hits) == 1, (target, source)
    hits[0]["value"] = value
    return out


def middle_corruption(n):
    """P(A(n/2-1) <- A(n/2)) raised from 1 to 2."""
    mid = n // 2
    return (orbit_id(mid - 1), "(1)"), (orbit_id(mid), "(1)"), 2


def zero_exception_doc():
    """chain_doc(3) with A1 a conormal-dense exception whose coefficient is 0.

    P(A0 <- A2) = P(A1 <- A2) = 0 on the (1) sheaves.  The dataset is valid,
    and the localization cycle pins A1 at 0, so the cycle holds no A1 entry.
    """
    doc = chain_doc(3)
    doc["conormal_dense_exceptions"] = ["A1"]
    doc = with_kl_value(doc, ("A0", "(1)"), ("A2", "(1)"), 0)
    return with_kl_value(doc, ("A1", "(1)"), ("A2", "(1)"), 0)
