"""End-to-end acceptance checks, one per shipped capability.

Each test prints a single summary line (bypassing pytest capture) so the
verdicts are visible in plain test logs, then asserts it.
"""

import sys
import time

import numpy as np

from alphavqe.bayes import ExperimentSetting, NormalBelief, bayes_risk, likelihood
from alphavqe.engine import SyntheticOracle, ensemble_run, run_estimation
from alphavqe.expectation import TARGET_INTERVAL, TwoStageConfig, collapse_distribution, collapse_state, two_stage_estimate
from alphavqe.rand import child_seed, rng_for
from alphavqe.schedules import (
    AlphaQPE,
    alpha_max,
    analytic_risk_curve,
    n_min,
    n_min_restarts,
    predicted_iterations,
)
from alphavqe.statevector import Ansatz, build_rotation_operator, pauli_expectation, prepare
from alphavqe.vqe import bundled_hamiltonian, estimate_energy, exact_ground_energy, optimize

from dense_oracles import circuit_branches, dense_eigenvectors, dense_operator, kron_rotation


def report(number: int, label: str, passed: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number} ({label}): {'PASS' if passed else 'FAIL'} ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    assert passed, line


def quadrature_bayes_risk(m: float, theta: float, mu: float, sigma: float) -> float:
    """Independent dense-trapezoid evaluation of the expected posterior variance."""
    phi = np.linspace(mu - 10.0 * sigma, mu + 10.0 * sigma, 20_001)
    prior = np.exp(-0.5 * ((phi - mu) / sigma) ** 2)
    prior /= np.trapezoid(prior, phi)
    total = 0.0
    for e in (0, 1):
        like = 0.5 * (1.0 + (-1.0) ** e * np.cos(m * (phi - theta)))
        w = prior * like
        z = np.trapezoid(w, phi)
        if z <= 0.0:
            continue
        mean = np.trapezoid(w * phi, phi) / z
        total += np.trapezoid(w * (phi - mean) ** 2, phi)
    return total


def test_criterion_1_risk_identity():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        sigma = float(np.exp(rng.uniform(np.log(1e-3), 0.0)))
        m = float(rng.uniform(0.05, 5.0) / sigma)
        mu = float(rng.uniform(-np.pi, np.pi))
        theta = float(mu + rng.uniform(-3.0, 3.0) * sigma)
        closed = bayes_risk(ExperimentSetting(m, theta), NormalBelief(mu, sigma))
        quad = quadrature_bayes_risk(m, theta, mu, sigma)
        worst = max(worst, abs(closed - quad) / quad)
    elapsed = time.time() - t0
    passed = worst <= 1e-6 and elapsed < 10.0
    report(1, "posterior-risk closed form", passed, f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_contraction_constants():
    t0 = time.time()
    results = {}
    for label, scale, lo, hi in (
        ("a=1", 1.0, 0.66, 0.76),
        ("a=a0", 1.154432899226, 0.65, 0.74),
    ):
        policy = AlphaQPE(1.0, scale=scale)
        phases = np.random.default_rng(202).uniform(-np.pi, np.pi, 200)
        ratios = []
        for i, phi in enumerate(phases):
            _, trace = run_estimation(
                SyntheticOracle(float(phi)),
                policy,
                NormalBelief(0.0, 1.0),
                max_iterations=40,
                seed=child_seed(202, label, i),
            )
            s = trace.sigmas()
            ratios.append((s[11:41] / s[10:40]) ** 2)
        mean_ratio = float(np.mean(ratios))
        results[label] = (mean_ratio, lo <= mean_ratio <= hi)
    elapsed = time.time() - t0
    passed = all(ok for _, ok in results.values()) and elapsed < 120.0
    detail = ", ".join(f"{k} ratio {v:.3f}" for k, (v, _) in results.items())
    report(2, "per-step variance contraction", passed, f"{detail}, {elapsed:.0f}s")


def test_criterion_3_iteration_law():
    # the iteration-count law states its constants for the best tuning of the
    # depth rule, so the count runs use the gain-optimal prefactor; the curve
    # shape is anchored and scale-free, so it is checked on the plain schedule
    t0 = time.time()
    epsilon = 0.05
    best_prefactor = 1.154432899226
    medians_ok = []
    curves_ok = []
    details = []
    for alpha in (0.0, 0.5, 0.75, 1.0):
        f = predicted_iterations(epsilon, alpha)
        counts = []
        for i in range(100):
            phi = float(rng_for(303, "phase", alpha, i).uniform(-np.pi, np.pi))
            _, trace = run_estimation(
                SyntheticOracle(phi),
                AlphaQPE(alpha, scale=best_prefactor),
                NormalBelief(0.0, 1.0),
                epsilon=epsilon,
                seed=child_seed(303, "run", alpha, i),
            )
            counts.append(len(trace.rows))
        median = float(np.median(counts))
        medians_ok.append(f / 1.5 <= median <= f * 1.5)

        ens = ensemble_run(AlphaQPE(alpha), n_phases=100, iterations=60, seed=404)
        k = np.arange(20, 61)
        curve = analytic_risk_curve(k, 20.0, float(ens.mean_sigma[20]), alpha)
        rms = float(np.sqrt(np.mean((np.log(ens.mean_sigma[20:61]) - np.log(curve)) ** 2)))
        curves_ok.append(rms <= 0.5)
        details.append(f"alpha={alpha:g} median {median:.0f} vs {f:.1f}, rms {rms:.2f}")
    elapsed = time.time() - t0
    passed = all(medians_ok) and all(curves_ok) and elapsed < 600.0
    report(3, "iterations-to-precision law", passed, "; ".join(details) + f", {elapsed:.0f}s")


def test_criterion_4_tradeoff_tables():
    t0 = time.time()
    spot1 = n_min(0.01, 10.0)
    spot2 = n_min_restarts(0.01, 10.0)
    spots_ok = abs(spot1 - 396.0) <= 1e-9 * 396.0 and abs(spot2 - 207.2103403719761) <= 1e-9 * spot2
    eps_grid = np.linspace(0.005, 0.5, 100)
    d_grid = np.linspace(1.02, 500.0, 100)
    holds = True
    equality_matches = True
    for eps in eps_grid:
        for d in d_grid:
            a = n_min(float(eps), float(d))
            b = n_min_restarts(float(eps), float(d))
            holds &= b <= a + 1e-12
            equality_matches &= (abs(a - b) < 1e-12) == (d >= 1.0 / eps)
    elapsed = time.time() - t0
    passed = spots_ok and holds and equality_matches and elapsed < 1.0
    report(
        4,
        "measurement lower-bound tables",
        passed,
        f"n_min={spot1:.10g}, restarts={spot2:.10f}, grid ok={holds and equality_matches}, {elapsed:.2f}s",
    )


def test_criterion_5_circuit_formula_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(505)
    paulis = ["ZZ", "XI", "IY", "XZ", "YY", "ZX"]
    worst_p = 0.0
    worst_phase = 0.0
    instances = 0
    while instances < 100:
        ansatz = Ansatz(2, 2, rng.uniform(-np.pi, np.pi, 4))
        pauli = paulis[rng.integers(len(paulis))]
        a = pauli_expectation(prepare(ansatz), pauli)
        if 1.0 - a * a < 1e-9:
            continue
        instances += 1
        # the Kronecker reference: U as its two reflections, diagonalised densely
        _, apply_u = kron_rotation(ansatz, pauli)
        v_plus, _, phi_dense = dense_eigenvectors(dense_operator(apply_u, 4))
        worst_phase = max(worst_phase, abs(phi_dense - build_rotation_operator(ansatz, pauli).rotation_angle))
        theta = float(rng.uniform(-np.pi, np.pi))
        for m in (1, 2, 4, 8, 16):
            (p0, _), _ = circuit_branches(apply_u, v_plus, m, theta)
            formula = likelihood(0, phi_dense, ExperimentSetting(float(m), theta))
            worst_p = max(worst_p, abs(p0 - formula))
    elapsed = time.time() - t0
    passed = worst_p <= 1e-10 and worst_phase <= 1e-10 and elapsed < 60.0
    report(
        5,
        "circuit vs likelihood formula",
        passed,
        f"max probability dev {worst_p:.1e}, max eigenphase dev {worst_phase:.1e}, {elapsed:.0f}s",
    )


def test_criterion_6_collapse_table():
    t0 = time.time()
    grid = np.arange(2, 11) * np.pi / 12.0
    worst = 0.0
    confidence_ok = True
    b2_one_seen = 0
    for j, phi in enumerate(grid):
        dist = collapse_distribution(phi)
        c2, s2 = np.cos(phi) ** 2, np.sin(phi) ** 2
        table = {
            (0, 0): (c2 * np.cos(phi / 2.0) ** 2, 0.5),
            (0, 1): (c2 * np.sin(phi / 2.0) ** 2, 0.5),
            (1, 0): (s2 / 2.0, (1.0 + np.sin(phi)) / 2.0),
            (1, 1): (s2 / 2.0, (1.0 - np.sin(phi)) / 2.0),
        }
        for key, (p_want, conf_want) in table.items():
            p_got, conf_got = dist[key]
            worst = max(worst, abs(p_got - p_want))
            if p_want > 1e-12:
                worst = max(worst, abs(conf_got - conf_want))
        for trial in range(40):
            col = collapse_state(phi, rng_for(606, "collapse", j, trial))
            if col.outcomes[0] == 1:
                b2_one_seen += 1
                confidence_ok &= col.confidence >= 0.75 - 1e-12
    elapsed = time.time() - t0
    passed = worst <= 1e-10 and confidence_ok and b2_one_seen > 0 and elapsed < 30.0
    report(
        6,
        "collapse outcome table",
        passed,
        f"max table dev {worst:.1e}, {b2_one_seen} collapses all confidence>=0.75: {confidence_ok}, {elapsed:.0f}s",
    )


CRITERION_7_CONFIG = TwoStageConfig(alpha=0.5, d_max=32.0, target_epsilon=0.02)


def criterion_7_trials(seed: int):
    """(truth, result) for 50 draws from `seed`: a magnitude uniform on
    TARGET_INTERVAL with a fair sign, estimated as a one-qubit <Z>."""
    lo, hi = TARGET_INTERVAL
    draw = np.random.default_rng(seed)
    for i in range(50):
        magnitude = float(draw.uniform(lo, hi))
        sign = 1.0 if draw.random() < 0.5 else -1.0
        truth = sign * magnitude
        ansatz = Ansatz(1, 1, np.array([np.arccos(truth)]))
        yield truth, two_stage_estimate(ansatz, "Z", CRITERION_7_CONFIG, rng_for(seed, "trial", i))


def test_criterion_7_two_stage_end_to_end():
    t0 = time.time()
    cfg = CRITERION_7_CONFIG
    within = 0
    meas = []
    for truth, res in criterion_7_trials(707):
        within += abs(res.value - truth) <= 0.02
        meas.append(res.measurements_used)
        assert res.max_depth_used <= cfg.d_max
    median = float(np.median(meas))
    elapsed = time.time() - t0
    passed = within >= 45 and median < 2500.0 and elapsed < 300.0
    report(
        7,
        "gated two-stage estimator",
        passed,
        f"{within}/50 within 0.02, median measurements {median:.0f} < 2500, {elapsed:.0f}s",
    )


def test_criterion_7_pooled_over_seeds():
    # criterion 7's draws from 40 seeds, held to its own rate of 45/50: a
    # fixed 50-draw stream cannot tell apart changes that move the share
    # within 0.02 by a few percent, 2000 pooled draws can
    t0 = time.time()
    within = 0
    meas = []
    for seed in range(700, 740):
        for truth, res in criterion_7_trials(seed):
            within += abs(res.value - truth) <= 0.02
            meas.append(res.measurements_used)
    median = float(np.median(meas))
    elapsed = time.time() - t0
    passed = within >= 1800 and median < 2500.0 and elapsed < 300.0
    report(
        7,
        "gated two-stage estimator, seeds 700-739 pooled",
        passed,
        f"{within}/2000 within 0.02, median measurements {median:.0f} < 2500, {elapsed:.0f}s",
    )


def test_criterion_8_variational_end_to_end():
    t0 = time.time()
    h = bundled_hamiltonian("toy1q")
    ground = exact_ground_energy(h)
    hits = 0
    for seed in range(20):
        res = optimize(
            h,
            Ansatz(1, 1, np.array([0.0])),
            max_iters=40,
            mode="alpha",
            epsilon_total=0.01,
            seed=800 + seed,
        )
        achieved, _ = estimate_energy(h, Ansatz(1, 1, res.best_lambda), "exact")
        hits += abs(achieved - ground) <= 0.02
    exact_res = optimize(h, Ansatz(1, 1, np.array([0.0])), max_iters=200, mode="exact")
    exact_gap = abs(exact_res.best_energy - ground)
    elapsed = time.time() - t0
    passed = hits >= 16 and exact_gap <= 1e-6 and elapsed < 300.0
    report(
        8,
        "variational ground-state search",
        passed,
        f"{hits}/20 noisy seeds within 0.02, exact-mode gap {exact_gap:.1e}, {elapsed:.0f}s",
    )


def test_criterion_9_acceleration_monotonicity():
    t0 = time.time()
    epsilon, d_max = 0.05, 16.0
    top = alpha_max(epsilon, d_max)
    medians = []
    for alpha in (0.0, top / 2.0, top):
        counts = []
        for i in range(50):
            phi = float(rng_for(909, "phase", alpha, i).uniform(-np.pi, np.pi))
            _, trace = run_estimation(
                SyntheticOracle(phi),
                AlphaQPE(alpha, depth_cap=d_max),
                NormalBelief(0.0, 1.0),
                epsilon=epsilon,
                seed=child_seed(909, "run", alpha, i),
            )
            counts.append(len(trace.rows))
        medians.append(float(np.median(counts)))
    elapsed = time.time() - t0
    passed = medians[0] > medians[1] > medians[2] and elapsed < 300.0
    report(
        9,
        "deeper circuits need fewer measurements",
        passed,
        f"medians {medians[0]:.0f} > {medians[1]:.0f} > {medians[2]:.0f} at alpha 0, {top/2:.3f}, {top:.3f}, {elapsed:.0f}s",
    )


def test_criterion_10_epsilon_exponents():
    # The paper's claim: depth m ~ 1/epsilon^alpha buys N ~ 1/epsilon^(2 (1 -
    # alpha)) samples.  Each median over 40 runs is fitted as a log-log slope
    # against 1/epsilon and held to the law's own slope over the same grid:
    # for N, the least-squares slope of predicted_iterations, which carries
    # the law's "- 1"; for the largest m, alpha, since m = a sigma^-alpha and
    # the last sigma sits within one contraction step of epsilon.  Tolerance
    # 0.15, fixed before the first run: a median of 40 runs whose log-count
    # spreads by at most 0.5 has sd <= 1.25 * 0.5 / sqrt(40) ~ 0.1, and five
    # log-spaced points over one decade give a slope sd <= 0.1 / 1.82 ~
    # 0.055, so 0.15 is about three sd (six over two decades).  At alpha = 1
    # the law is 4 ln(1/epsilon), held within criterion 3's 1.5x at every
    # epsilon.  Phases are uniform on [-1, 1], inside the prior N(0, 1), so
    # a capture on a far lobe does not confound the fit.  A run at a smaller
    # epsilon continues the same seeded run at a larger one, so each phase
    # runs once, to the smallest epsilon, and every epsilon reads its prefix.
    t0 = time.time()
    best_prefactor = 1.154432899226
    tolerance = 0.15
    slopes_ok, ratios_ok, details = [], [], []
    for alpha, smallest in ((0.0, 0.01), (0.5, 0.001), (0.75, 0.001), (1.0, 0.001)):
        epsilons = np.geomspace(0.1, smallest, 5)
        samples = np.empty((40, epsilons.size))
        depths = np.empty((40, epsilons.size))
        for i in range(40):
            phi = float(rng_for(1010, "phase", alpha, i).uniform(-1.0, 1.0))
            _, trace = run_estimation(
                SyntheticOracle(phi),
                AlphaQPE(alpha, scale=best_prefactor),
                NormalBelief(0.0, 1.0),
                epsilon=smallest,
                seed=child_seed(1010, "run", alpha, i),
            )
            sigmas, m = trace.sigmas(), trace.depths()
            for j, eps in enumerate(epsilons):
                n = int(np.argmax(sigmas <= eps))
                samples[i, j], depths[i, j] = n, m[:n].max(initial=0.0)
        x = np.log(1.0 / epsilons)
        n_median = np.median(samples, axis=0)
        if alpha == 1.0:
            ratios = n_median / (4.0 * x)
            ratios_ok.append(bool(np.all((ratios >= 1.0 / 1.5) & (ratios <= 1.5))))
            details.append(f"alpha=1 N/4ln(1/eps) {ratios.min():.2f}-{ratios.max():.2f}")
            continue
        n_slope = np.polyfit(x, np.log(n_median), 1)[0]
        m_slope = np.polyfit(x, np.log(np.median(depths, axis=0)), 1)[0]
        law = np.polyfit(x, np.log([predicted_iterations(eps, alpha) for eps in epsilons]), 1)[0]
        slopes_ok.append(abs(n_slope - law) <= tolerance and abs(m_slope - alpha) <= tolerance)
        details.append(f"alpha={alpha:g} N slope {n_slope:.3f} (law {law:.3f}), max m slope {m_slope:.3f} ({alpha:g})")
    elapsed = time.time() - t0
    passed = all(slopes_ok) and all(ratios_ok) and elapsed < 120.0
    report(10, "epsilon exponents of samples and depth", passed, "; ".join(details) + f", {elapsed:.0f}s")
