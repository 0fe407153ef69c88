#!/usr/bin/env python3
"""Explicit paths from (1,1,1) to arbitrary targets, no search involved.

The route has a fixed shape.  First move the seed into the set of points
with some coordinate of maximal rotation order (the "cage", the union of
maximal orbits), which is small in diameter because maximal conics overlap
heavily; for most primes that is a short walk along the first axis.  Then
move between maximal conics through their intersection points.  Finally,
if the target itself is not in the cage, enter its conic from the cage
and scan, climbing through strictly increasing orbit orders when the scan
radius would be too large, with a closed-form exit for the parabolic 2/3
orbits.  The seed enters the cage by the same scan, climb or exit.
"""

from markoff import Classifier, construct_path, seed_table

# the seed walks for the first few primes: tiny in practice
print("least first-axis power landing in the cage:")
for p, n, pts in seed_table([5, 7, 29, 47, 59, 61]):
    walk = ", ".join(str(x) for x in pts)
    print(f"  p={p:3d}: rot1^{n}  {walk}")

# a full route, stage by stage: a cage entry, a parabolic exit, and an
# order climb (that last one needs a point with only tiny orbit orders,
# which first happens at p = 199 where (1,1,2) has orders 11 and 9)
for p, target in ((31, (1, 2, 1)), (29, (0, 8, 20)), (199, (1, 1, 2))):
    cls = Classifier(p)
    path = construct_path(p, target, cls=cls)
    print()
    print(f"p = {p}, target {target}")
    print(f"  word: {path.word} (length {path.word.length}, "
          f"{path.word.switches} axis switches)")
    for stage in path.stages:
        steps = ".".join(f"r{a}^{n}" for a, n in stage.steps) or "(stay)"
        print(f"  {stage.tag:13s} {steps:24s} -> {stage.endpoint}")
    assert path.word.apply_mod((1, 1, 1), p) == target
    print("  replay confirms the endpoint")
