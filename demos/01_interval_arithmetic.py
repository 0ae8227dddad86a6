"""Directed-rounding intervals at the edges, integer boxes for points.

The scalar bounds of a certificate (norms, theta, epsilon, kappa) are
intervals whose endpoints are decimal floats: lower endpoints round toward
-infinity, upper endpoints toward +infinity, so the true value can never
escape.  Complex points are integer boxes at one scale, combined exactly
and rounded outward once per part.  This script walks through the basic
guarantees.
"""

import decimal

from renormcert import RoundingContext, interval, rectangle
from renormcert.rounding import box_mul, box_sqr, box_text

ctx = RoundingContext(precision=30)

print("== enclosure of 1/3 at 30 digits ==")
third = ctx.idiv(interval(1), interval(3))
print(f"  1/3 in {third}")
print(f"  width: {third.hi - third.lo}   (one unit in the last place)")

print("\n== the same computation never depends on ambient state ==")
decimal.getcontext().prec = 5   # sabotage the thread context
assert ctx.idiv(interval(1), interval(3)) == third
decimal.getcontext().prec = 28
print("  poisoning the thread-local decimal context changes nothing")

print("\n== interval multiplication covers every sign case ==")
x, y = interval(-1, 2), interval(3, 4)
print(f"  {x} * {y} = {ctx.imul(x, y)}")

print("\n== precision is a dial: more digits, tighter enclosures ==")
for p in (15, 30, 60):
    t = RoundingContext(p).idiv(interval(1), interval(3))
    print(f"  {p:3d} digits: width {t.hi - t.lo}")

print("\n== complex points as integer boxes at scale 10**-6 ==")
S = 6
unit = 10 ** S
i = ctx.to_box(rectangle(0, 1), S)
print(f"  i * i = {box_text(box_mul(i, i, unit), S)}")
z = ctx.to_box(rectangle(interval(1, 2), interval(-1, 1)), S)
print(f"  z      = {box_text(z, S)}")
print(f"  z * z  = {box_text(box_mul(z, z, unit), S)}")
print(f"  z ** 2 = {box_text(box_sqr(z, unit), S)}   (true squares: a narrower real part)")
third_box = ctx.to_box(rectangle(third), S)
print(f"  1/3 read outward into a box: {box_text(third_box, S)}")
print(f"  and written back at 30 digits: {ctx.box_rectangle(third_box, S)}")
