"""The translation momenta stop commuting on winding sectors.

The nonequivariance cocycle Sigma, computed two independent ways, equals
-4*pi*omega0(a1, a2)*deg; plugged into the commutation relations it predicts
{P_x, P_y} = 4*pi*deg, which the bracket measured from the exact adjoint
gradients of P reproduces.
"""
import numpy as np

from llgeo import EuclideanAlgebraElement, Grid, degree, make_bp_soliton, make_constant
from llgeo.cocycle import check_px_py_bracket, cocycle_direct, cocycle_via_pairing

e1 = EuclideanAlgebraElement.translation((1.0, 0.0))
e2 = EuclideanAlgebraElement.translation((0.0, 1.0))

grid = Grid.centered((96, 96), 16.0)
print("field            Sigma(direct)  Sigma(pairing)  -4*pi*deg      {Px,Py}     4*pi*deg")
for label, field in (
    ("vacuum     ", make_constant(grid, (0.0, 0.0, -1.0))),
    ("soliton m=1", make_bp_soliton(grid, 1, 1.5, 6.0)),
    ("soliton m=2", make_bp_soliton(grid, 2, 1.5, 6.0)),
):
    direct = cocycle_direct(field, e1, e2)
    paired = cocycle_via_pairing(field, e1, e2)
    bracket, fourpi = check_px_py_bracket(field)
    print(f"{label}  {direct:+12.6f}  {paired:+12.6f}  {-4 * np.pi * degree(field):+12.6f}"
          f"  {bracket:+10.5f}  {fourpi:+10.5f}")

print("\nthe bracket equals minus the cocycle: translations commute only on the")
print("degree-zero sector, and each unit of winding costs 4*pi.")
