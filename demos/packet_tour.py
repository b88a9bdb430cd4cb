"""Tour the packet structure: micro, basic, weak, and the duality checks.

    python3 demos/packet_tour.py
"""

from microloc import (all_micro_packets, basic_arthur_packet,
                      build_constraints, euler_matrix, load_bundled_dataset,
                      simplified_arthur_parameters, solve, unitarity_report,
                      verify_az_micro_compatibility, verify_weak_equals_union,
                      weak_arthur_packet)

ds = load_bundled_dataset()
sr = solve(build_constraints(ds, euler_matrix(ds)))

print("micro-packets (members whose cycle touches the anchor's conormal):")
packets = all_micro_packets(sr)
for anchor, p in packets.items():
    line = f"   {anchor}: " + " ".join(p.members)
    if p.indeterminate:
        line += "   indeterminate: " + " ".join(p.indeterminate)
    print(line)
print()

basic = basic_arthur_packet(sr)
print(f"basic packet (duals of open-orbit parameters), anchored at "
      f"{basic.anchor}: {' '.join(basic.members)}")

weak = weak_arthur_packet(ds)
print(f"weak packet over the special piece {list(ds.special_piece)}: "
      f"{len(weak.members)} members")

wu = verify_weak_equals_union(sr)
print(f"weak packet equals the union of micro-packets at "
      f"{wu.anchors}: {wu.equal}")
print()

print("duality compatibility, anchor by anchor:")
for r in verify_az_micro_compatibility(sr):
    print(f"   dual image of packet {r.anchor} vs packet {r.dual_anchor}: "
          f"{'match' if r.ok else 'MISMATCH'}")
print()

print("parameter family (support orbit, dual orbit):")
for row in simplified_arthur_parameters(ds):
    print(f"   {row['label']:8s} ({row['support']}, {row['dual']})")
print()

rows = unitarity_report(ds.catalog, list(packets.values()))
flagged = [(r["anchor"], r["nonunitary"]) for r in rows if not r["all_unitary"]]
print("packets with a non-unitary member:", flagged)
