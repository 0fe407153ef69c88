#!/usr/bin/env python3
"""Walk through the basic objects at a single small prime.

The surface is x1^2 + x2^2 + x3^2 = 3 x1 x2 x3 over F_p.  Each rotation
fixes one coordinate and moves the other two by a linear map whose trace is
three times the fixed value, so the behavior of an orbit is decided by that
one value: its characteristic discriminant (3v)^2 - 4 sorts it into
hyperbolic (order divides p - 1), elliptic (order divides p + 1), or
parabolic (value +-2/3, order p or 2p).
"""

from markoff import Classifier, check_point, on_surface, point_order, rot, rotation_order

P = 13
X = (1, 2, 5)

print(f"prime p = {P}, start x = {X}")
print(f"on the surface: {on_surface(X, P)}")
check_point(X, P)

# the three rotations move x to three neighbors
for axis in (1, 2, 3):
    print(f"  rot{axis}(x) = {rot(X, axis, P)}")

# the orbit of x under rot1 cycles with the order of the moved pair's matrix
cls = Classifier(P)
print()
print(f"rot1 orbit length at x: {rotation_order(X, 1, cls)}")
orbit = [X]
while True:
    y = rot(orbit[-1], 1, P)
    if y == X:
        break
    orbit.append(y)
print(f"orbit: {orbit}")

# per-value classification across the whole field
print()
print(f"value classes mod {P} (2/3 = {cls.two_thirds}, -2/3 = {cls.minus_two_thirds}):")
for v in range(P):
    c = cls.classify(v)
    star = "  <- maximal" if c.maximal else ""
    print(f"  v={v:2d}: {c.kind:10s} order {c.order:3d}{star}")

print()
print(f"maximal values, ascending: {cls.maximal_values()}")
print(f"point order of x (largest coordinate rotation order): {point_order(X, cls)}")
