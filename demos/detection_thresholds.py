"""Critical detection efficiencies of the tilted family.

Reduces each tilted functional to its outcome-0 canonical form and solves
for the detector efficiency at which the ideal realization stops
violating, in two detector models: Bob perfect, and both parties sharing
one efficiency.  With settings fixed at their lossless optimum, fainter
violations leave less room for losses, so the thresholds climb toward 1
as the entanglement weakens.
"""

import numpy as np

from bellgap import (
    alpha_for_concurrence,
    canonicalize,
    critical_efficiency,
    tilted_behavior,
    tilted_functional,
)


def main():
    cf = canonicalize(tilted_functional(0.0))
    ideal = tilted_behavior(0.0)
    sym = critical_efficiency(cf, ideal, "symmetric").eta_a
    asym = critical_efficiency(cf, ideal, "asymmetric_b_perfect").eta_a
    print("CHSH on the singlet:")
    print(f"  symmetric  eta = {sym:.6f}  (2/(1+sqrt 2) = {2 / (1 + np.sqrt(2)):.6f})")
    print(f"  asymmetric eta_A = {asym:.6f}  (1/sqrt 2 = {1 / np.sqrt(2):.6f})\n")

    print(f"{'concurrence':>12} {'alpha':>7} {'eta_sym':>9} {'eta_asym':>9}")
    for conc in (1.0, 0.835, 0.582, 0.375, 0.193):
        alpha = alpha_for_concurrence(conc)
        cf = canonicalize(tilted_functional(alpha))
        b = tilted_behavior(alpha)
        eta_s = critical_efficiency(cf, b, "symmetric").eta_a
        eta_a = critical_efficiency(cf, b, "asymmetric_b_perfect").eta_a
        print(f"{conc:12.3f} {alpha:7.4f} {eta_s:9.5f} {eta_a:9.5f}")
    print()
    print("Both thresholds approach 1 as the violation shrinks; sparing one")
    print("party's detector always buys a lower requirement on the other.")


if __name__ == "__main__":
    main()
