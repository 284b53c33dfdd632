"""The homocyclic group inside SL_n, its 2-cocycle, and the twisted product.

Run:  python3 demos/group_and_cocycle.py
"""

from twisted_hecke import (
    GroupElem,
    alpha,
    cocycle_identity_holds,
    star_mul,
    star_power,
)

n, ell = 4, 3
print(f"G = (Z/{ell})^{n - 1} with generators g_1..g_{n} (g_{n} dependent):")
for i in range(1, n + 1):
    g = GroupElem.generator(n, ell, i)
    print(f"  g_{i} has exponent vector {g.e}")

print()
print("The twisted product g*h = alpha(g,h) gh skew-commutes adjacent generators:")
for i in (1, 2, 3):
    gi = GroupElem.generator(n, ell, i)
    gj = GroupElem.generator(n, ell, i + 1)
    c_forward, _ = star_mul(gi, gj)
    c_backward, _ = star_mul(gj, gi)
    print(f"  alpha(g_{i}, g_{i + 1}) = {c_forward},  alpha(g_{i + 1}, g_{i}) = {c_backward}")

g1, g3 = GroupElem.generator(n, ell, 1), GroupElem.generator(n, ell, 3)
print(f"  non-adjacent: alpha(g_1, g_3) = {alpha(g1, g3)} = alpha(g_3, g_1) = {alpha(g3, g1)}")

print()
print("ell-fold twisted powers of the generators:")
for i in range(1, n + 1):
    scal, g = star_power(GroupElem.generator(n, ell, i), ell)
    print(f"  g_{i} * g_{i} * ... ({ell} factors) = {scal} * {g.render()}")
print("(the dependent generator picks up the sign (-1)^(n(ell-1)))")

print()
print("The 2-cocycle identity alpha(g,h) alpha(gh,k) = alpha(h,k) alpha(g,hk),")
print("checked exactly on the generator pairs and the |G| twist rows")
print("(alpha bilinear => every triple):")
for n_, ell_ in [(3, 2), (4, 3), (5, 4)]:
    ok = cocycle_identity_holds(n_, ell_)
    size = ell_ ** (n_ - 1)
    print(f"  (n={n_}, ell={ell_}): {(n_ - 1) ** 2:2d} generator pairs, {size:3d} rows -> {ok}")
