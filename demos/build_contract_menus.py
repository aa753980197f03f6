"""Walk through contract menu design for relay agents.

The source cannot observe a relay's channel gain (its "type"), so it screens
relays with a menu of (SNR, payment) pairs.  This script builds the menu for
uniformly distributed types on [50, 300], audits its incentive properties,
and contrasts it with the complete-information benchmark.

Run:  python3 demos/build_contract_menus.py
"""

from relaycontracts import (
    TypeDistribution,
    TypeGrid,
    first_best_contract,
    first_best_menu,
    information_rent,
    relay_utility,
    second_best_menu,
    select_best_contract,
    snr_to_db,
    verify_menu,
)

# ----------------------------------------------------------------------
# 1. Quantize the type range so the menu has finitely many contracts.
# ----------------------------------------------------------------------
dist = TypeDistribution.uniform(50.0, 300.0)
grid = TypeGrid.from_distribution(dist, k=10, n_subcarriers=16)
print("type grid:", grid.deltas)
print("each type mass (per subcarrier):", grid.probs[:, 0])

# ----------------------------------------------------------------------
# 2. Second-best menu: optimal under asymmetric information.
#    SNRs are distorted downward below the top type, and every type above
#    the bottom earns an information rent.
# ----------------------------------------------------------------------
menu = second_best_menu(grid, cost_coeff=1.0)
rents = information_rent(menu)
print("\n k  type   snr(dB)  transfer   rent")
for i, pair in enumerate(menu.pairs):
    print(
        f"{i + 1:2d}  {grid.deltas[i]:5.0f}  {snr_to_db(pair.snr):7.4f}"
        f"  {pair.transfer:8.4f}  {rents[i]:6.4f}"
    )

fb_top = first_best_contract(float(grid.deltas[-1]), 1.0)
print("\nno distortion at the top:",
      f"menu snr {menu.pairs[-1].snr:.4f} == first-best snr {fb_top.snr:.4f}")

# ----------------------------------------------------------------------
# 3. Audit: all IR and IC constraints hold by construction, the bottom
#    type's IR binds, and adjacent ICs bind (that is what pins the
#    transfers).
# ----------------------------------------------------------------------
audit = verify_menu(menu)
print("\nmenu audit: all constraints ok?", audit.all_ok)
print("IR binds at the bottom type:", audit.ir_binding_at_bottom)
print("adjacent ICs binding:", all(audit.adjacent_ic_binding))

# A relay with true gain 180 sits in the bracket [175, 200), so it picks
# contract 6 on its own -- no channel feedback needed.
theta = 180.0
pick = select_best_contract(menu, theta)
print(f"\nrelay with type {theta} picks contract {pick + 1}",
      f"(utility {relay_utility(menu.pairs[pick], theta, 1.0):.4f})")

# ----------------------------------------------------------------------
# 4. The first-best menu would be cheaper for the source, but it is not
#    incentive compatible: every relay would grab the bottom contract.
# ----------------------------------------------------------------------
fb_menu = first_best_menu(grid, 1.0)
fb_audit = verify_menu(fb_menu)
print("\nfirst-best menu incentive compatible?", bool(fb_audit.ic_matrix.all()))
picks = {select_best_contract(fb_menu, float(t)) for t in grid.deltas}
print("contracts actually chosen from it:", sorted(p + 1 for p in picks))
