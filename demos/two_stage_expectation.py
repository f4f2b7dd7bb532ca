"""A signed Pauli expectation through the gate: phase path vs fallback.

Three trial states: one whose magnitude the stage-1 gate routes to phase
estimation, one it correctly rejects toward plain sampling, and one near
zero.  Measurement counts show where the depth budget pays off.
"""

import numpy as np

from alphavqe.expectation import (
    TARGET_INTERVAL,
    TwoStageConfig,
    collapse_state,
    two_stage_estimate,
)
from alphavqe.statevector import Ansatz, build_rotation_operator, prepare

cfg = TwoStageConfig(alpha=0.5, d_max=32.0, target_epsilon=0.02)
print(f"target interval for the phase path: [{TARGET_INTERVAL[0]:.4f}, {TARGET_INTERVAL[1]:.4f}]")
print(f"pure statistical budget at eps={cfg.target_epsilon}: {int(np.ceil(1 / cfg.target_epsilon**2))} shots\n")

for truth in [-0.62, 0.93, 0.04]:
    ansatz = Ansatz(1, 1, np.array([np.arccos(truth)]))
    res = two_stage_estimate(ansatz, "Z", cfg, np.random.default_rng(5))
    print(f"true <Z> = {truth:+.2f}")
    print(f"  path         : {res.path}")
    print(f"  estimate     : {res.value:+.4f}  (error {abs(res.value - truth):.4f})")
    print(f"  measurements : {res.measurements_used}")
    print(f"  deepest m    : {res.max_depth_used:.0f}\n")

# the collapse step in isolation: outcome statistics over repeated preparations
truth = -0.62
op = build_rotation_operator(Ansatz(1, 1, np.array([np.arccos(truth)])), "Z")
rng = np.random.default_rng(9)
confidences = []
sharp = 0
for _ in range(400):
    col = collapse_state(prepare(op.ansatz), op, rng)
    confidences.append(col.confidence)
    sharp += col.outcomes[0] == 1
phi = op.rotation_angle
print(f"collapse statistics on |A| = {abs(truth)} (eigenphase {phi:.3f})")
print(f"  sharp first bit (b2=1) in {sharp}/400 runs; predicted sin^2(phi) = {np.sin(phi)**2:.3f}")
print(f"  mean branch confidence {np.mean(confidences):.3f}")
print(f"  confidence is >= 0.75 whenever b2=1, exactly 0.5 otherwise")
