"""Illumination-style coverage: how many sensors until every point is lit?

Under the cumulative model a sample is covered when the summed contribution
of all sensors that see it clears a threshold, each contribution falling off
with the square of distance and the cosine of the incidence angle.  This demo
sweeps the sensor budget for a fixed threshold, then holds the budget and
sweeps the threshold, and finally contrasts the two distance-based problems:
the cumulative threshold solve and the max-min radius search, a bottleneck
descent that moves to the radius each feasible placement needs and probes
the candidate radius just below it.
"""

import numpy as np

import surfcover as sc
from surfcover.coverage import QualityKind

room = sc.gen_room(extent=(6.0, 4.0, 3.0),
                   obstacles=[((2.0, 1.5, 0.0), (3.5, 2.5, 1.0))])
samples = sc.sample_surface(room, pitch=0.6)
candidates = sc.generate_candidates_plane(2.8, (0.5, 0.5, 5.5, 3.5), 1.0)
bvh = sc.build_bvh(room)
vm = sc.visibility_matrix(bvh, samples, candidates)

lam = sc.build_instance(samples, candidates, vm, QualityKind.LAMBERT_INVERSE_SQUARE)
n = len(samples)
print(f"{n} samples, {len(candidates)} candidates")

threshold = 0.05
print(f"\nbudget sweep at threshold {threshold}")
print(" k  covered  ratio")
for k in range(1, 6):
    _, report, _ = sc.solve_problem3(lam, k, threshold)
    print(f" {k}  {report.objective:7.0f}  {report.coverage_ratio(n):.3f}")

print("\nthreshold sweep at k = 3  (harder demands cover fewer samples)")
print(" threshold  covered")
for phi in (0.02, 0.05, 0.1, 0.2, 0.4):
    _, report, _ = sc.solve_problem3(lam, 3, phi)
    print(f" {phi:9.2f}  {report.objective:7.0f}")

# the max-min alternative: instead of a fixed threshold, ask for the smallest
# radius within which 90% of the samples find a visible sensor
vis = sc.build_instance(samples, candidates, vm, QualityKind.VISIBILITY)
reachable = vm.bits.any(axis=1).mean()
rho = 0.9
print(f"\nmax-min radius for {rho:.0%} coverage "
      f"({reachable:.1%} of samples see at least one candidate)")
print(" k   radius   worst-case quality 1/r")
for k in range(1, 6):
    try:
        r_star, placement, _ = sc.solve_problem2(vis, k, rho=rho)
    except sc.InfeasibleError:
        print(f" {k}  unreachable at any radius")
        continue
    print(f" {k}  {r_star:7.3f}   {1.0 / r_star:.3f}")
