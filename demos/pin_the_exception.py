"""Walk through the localization argument that pins the S4 multiplicity.

The conormal to S4 is the one conormal without a dense orbit projection,
so the cycle of the open-orbit sign sheaf has no forced coefficient there.
Summing the cycles of the sheaves in the multiplicity column of the
standard sheaf at the open orbit, each weighted by its multiplicity, gives
that coefficient directly: it reads off as the table's free parameter c.
The -1 + 2 - 1 = 0 printed first is the S4 entry of cg * mg = 1 on that
column.

    python3 demos/pin_the_exception.py
"""

from microloc import (build_constraints, euler_matrix, load_bundled_dataset,
                      localization_check_terms, solve, special_cc_localization)

ds = load_bundled_dataset()
sr = solve(build_constraints(ds, euler_matrix(ds)))

print("exception orbits (conormal without dense orbit):",
      ", ".join(ds.conormal_dense_exceptions))
print()

for cell, terms in localization_check_terms(ds).items():
    print(f"composition multiplicity of {cell} in the open-orbit column:")
    total = 0
    for t in terms:
        if not t["product"]:
            continue
        print(f"   cg({cell} <- {t['gamma']}) * mg = "
              f"{t['cg']} * {t['mg']} = {t['product']}")
        total += t["product"]
    print(f"   total: {total}  (zero, as a composition factor count must be)")
print()

loc = special_cc_localization(sr)
top = ds.poset.top()
print(f"cycle of IC({top}, sign) from localization:")
for o in ds.orbits:
    v = loc.mult.get(o.id)
    if v:
        print(f"   [{o.id}] x {v}")
print()
print("the S4 coefficient agrees symbolically with the solved table row,")
print("which is what pins the same parameter c in both computations")
