"""Variational ground-state search on the bundled 1-qubit Hamiltonian.

Runs the optimizer in exact mode (analytic expectations) and in alpha mode
(every energy evaluated through the gated two-stage estimator with a finite
measurement budget), comparing both against diagonalization.
"""

import numpy as np

from alphavqe.statevector import Ansatz
from alphavqe.vqe import bundled_hamiltonian, estimate_energy, exact_ground_energy, optimize

h = bundled_hamiltonian("toy1q")
ground = exact_ground_energy(h)
print("hamiltonian terms:", ", ".join(f"{c:+.2f} {p}" for c, p in h.terms))
print(f"diagonalization ground energy: {ground:.9f}\n")

template = Ansatz(1, 1, np.array([0.0]))

exact = optimize(h, template, max_iters=200, mode="exact")
print("exact mode")
print(f"  best lambda : {exact.best_lambda[0]:+.6f}")
print(f"  best energy : {exact.best_energy:.9f}  (gap {abs(exact.best_energy - ground):.1e})")
print(f"  evaluations : {len(exact.energy_history)}\n")

noisy = optimize(h, template, max_iters=40, mode="alpha", epsilon_total=0.01, seed=60)
achieved, _ = estimate_energy(h, Ansatz(1, 1, noisy.best_lambda), "exact")
print("alpha mode, epsilon_total = 0.01")
print(f"  best lambda          : {noisy.best_lambda[0]:+.6f}")
print(f"  measured best energy : {noisy.best_energy:.6f}")
print(f"  true energy there    : {achieved:.6f}  (gap {abs(achieved - ground):.4f})")
print(f"  total measurements   : {noisy.total_measurements}")

print("\nlast few recorded energies (iteration, lambda, energy, measurements so far):")
for step, lam, energy, meas in noisy.energy_history[-5:]:
    print(f"  {step:4d}  {lam[0]:+.4f}  {energy:+.6f}  {meas}")
