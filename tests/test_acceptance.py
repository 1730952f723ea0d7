"""Release acceptance gate: eight system-level checks.

Each test prints exactly one summary line of the form
``[criterion k] <metric summary> -> PASS|FAIL`` before asserting, so the
gate's verdicts can be read off a single captured-output listing.

Thresholds are release contracts, pinned here:
  * identity tolerance: 1e-10 absolute on satisfaction-scale quantities
  * oracle proximity: final value >= 0.95 * optimum in >= 95% of seeds
  * method ordering: each margin > 2 standard errors of the paired difference
  * per-source satisfaction floor: 0.90 (0.90-0.95 is reported, not fatal)
  * convergence: 95th percentile <= 300 iterations
  * scalar formula checks: exact, or 1e-6 relative for derived values
  * stability: zero failures for deterministic optimizers, < 10% witness
    fraction for the stochastic one
"""

import math
import time

import numpy as np
import pytest

import relaymatch as rm
from relaymatch.matching import enumerate_strategies
from relaymatch.solvers import exhaustive_search

IDENTITY_TOL = 1e-10
ORACLE_RATIO = 0.95
ORACLE_FRACTION = 0.95
SATISFACTION_FLOOR = 0.90
SATISFACTION_TARGET = 0.95
CONVERGENCE_P95 = 300
DERIVED_RTOL = 1e-6
PMA_WITNESS_FRACTION = 0.10

SOLVER_SET = ("pma", "best_response", "many_to_one", "substitutable")


def _instance(params, seed):
    topology = rm.generate_topology(params, seed)
    caps = rm.build_capacity_table(topology)
    return topology, rm.default_profiles(topology), caps


def _seed_pairs(master, count, width=2):
    for child in np.random.SeedSequence(master).spawn(count):
        parts = child.spawn(width)
        yield (int(parts[0].generate_state(1, np.uint64)[0]), *parts[1:])


SMALL_PARAMS = rm.TopologyParams(num_sources=4, num_relays=3,
                                 radios_per_relay=1, source_radios=(1, 2),
                                 path_loss=rm.AIR_TO_AIR)


@pytest.fixture(scope="module")
def ordering_ensembles():
    """One 600-replication ensemble (200 per system size) shared by the
    ordering and satisfaction-level criteria. Output does not depend on the
    worker count (test_experiments pins that), so two workers only save time."""
    results = {}
    for n in (8, 13, 16):
        config = rm.ExperimentConfig(
            topology=rm.TopologyParams(num_sources=n, path_loss=rm.AIR_TO_AIR),
            solvers=[rm.SolverConfig(kind=k) for k in SOLVER_SET],
            replications=200,
            master_seed=2026 + n,
            metrics=("runs",),
            store_traces=False,
            workers=2)
        results[n] = rm.run_ensemble(config)
    return results


def test_criterion_1_potential_identity():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    worst = 0.0
    triples = 0
    while triples < 10_000:
        params = rm.TopologyParams(
            num_sources=int(rng.integers(2, 6)),
            num_relays=int(rng.integers(1, 3)),
            radios_per_relay=int(rng.integers(1, 3)),
            source_radios=None,
            path_loss=rm.AIR_TO_AIR)
        topology, profiles, caps = _instance(params, int(rng.integers(2 ** 32)))
        space = [enumerate_strategies(topology.num_radios, q)
                 for q in topology.quotas]
        start = [space[n][int(rng.integers(len(space[n])))]
                 for n in range(topology.num_sources)]
        m = rm.Matching(start, topology.num_radios)
        base = rm.global_satisfaction(m, profiles, caps)
        for _ in range(20):
            n = int(rng.integers(topology.num_sources))
            cand = space[n][int(rng.integers(len(space[n])))]
            du = (rm.relay_utility(m, n, cand, profiles, caps)
                  - rm.relay_utility(m, n, m.radios_of(n), profiles, caps))
            dlam = rm.global_satisfaction(m.with_strategy(n, cand),
                                          profiles, caps) - base
            worst = max(worst, abs(du - dlam))
            triples += 1
    elapsed = time.time() - t0
    ok = worst <= IDENTITY_TOL and elapsed < 60
    print(f"[criterion 1] potential identity: max |dU - dLambda| = {worst:.2e} "
          f"over {triples} triples in {elapsed:.1f}s "
          f"-> {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_2_oracle_proximity():
    t0 = time.time()
    hits = 0
    ratios = []
    for topo_seed, solver_seq in _seed_pairs(314, 200):
        topology, profiles, caps = _instance(SMALL_PARAMS, topo_seed)
        _, lam_star = exhaustive_search(topology, profiles, caps)
        m, _ = rm.run_pma(topology, profiles, caps, rm.SolverConfig(kind="pma"),
                          rng=np.random.default_rng(solver_seq))
        ratio = rm.global_satisfaction(m, profiles, caps) / lam_star
        ratios.append(ratio)
        hits += ratio >= ORACLE_RATIO
    fraction = hits / len(ratios)
    elapsed = time.time() - t0
    ok = fraction >= ORACLE_FRACTION and elapsed < 300
    print(f"[criterion 2] oracle proximity: {fraction:.1%} of 200 seeds reach "
          f">= {ORACLE_RATIO:.2f} of the optimum (worst ratio "
          f"{min(ratios):.3f}, {elapsed:.0f}s) -> {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_3_method_ordering(ordering_ensembles):
    diffs = {k: [] for k in SOLVER_SET[1:]}
    per_n = {}
    for n, result in ordering_ensembles.items():
        pma = result.final_lambdas("pma")
        per_n[n] = {"pma": pma.mean()}
        for k in diffs:
            other = result.final_lambdas(k)
            diffs[k].extend(pma - other)
            per_n[n][k] = other.mean()
    verdicts = []
    for k, d in diffs.items():
        d = np.array(d)
        sem = d.std(ddof=1) / math.sqrt(len(d))
        verdicts.append((k, d.mean(), sem, d.mean() > 2 * sem))
    ok = all(v[3] for v in verdicts)
    margins = ", ".join(f"vs {k}: +{mean:.3f} (2se {2 * sem:.3f})"
                        for k, mean, sem, _ in verdicts)
    detail = "; ".join(
        f"N={n}: " + " ".join(f"{k}={per_n[n][k]:.2f}" for k in SOLVER_SET)
        for n in sorted(per_n))
    print(f"[criterion 3] ordering over 600 paired replications: {margins} "
          f"[{detail}] -> {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_4_satisfaction_level(ordering_ensembles):
    props = {n: r.satisfaction_proportion("pma")
             for n, r in ordering_ensembles.items()}
    ok = all(p > SATISFACTION_FLOOR for p in props.values())
    flagged = [n for n, p in props.items() if p <= SATISFACTION_TARGET]
    note = (f" (below {SATISFACTION_TARGET:.2f} target at N={flagged},"
            f" floor is {SATISFACTION_FLOOR:.2f})" if flagged else "")
    summary = ", ".join(f"N={n}: {p:.3f}" for n, p in sorted(props.items()))
    print(f"[criterion 4] mean per-source satisfaction: {summary}{note} "
          f"-> {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_5_convergence_bound():
    config = rm.ExperimentConfig(
        topology=rm.TopologyParams(num_sources=20, path_loss=rm.AIR_TO_AIR),
        solvers=[rm.SolverConfig(kind="pma")],
        replications=100, master_seed=11, metrics=("runs",),
        store_traces=False)
    result = rm.run_ensemble(config)
    iters = [r.convergence_iteration for r in result.records_for("pma")
             if r.convergence_iteration is not None]
    non_conv = result.non_converged_fraction("pma")
    xs, ps = rm.convergence_cdf(result, "pma")
    p95 = float(np.percentile(iters, 95))
    deciles = {q: float(np.percentile(iters, q)) for q in (25, 50, 75, 95)}
    ok = non_conv == 0.0 and p95 <= CONVERGENCE_P95
    cdf_summary = " ".join(f"p{q}={v:.0f}" for q, v in deciles.items())
    print(f"[criterion 5] convergence at 20 sources / 10 radios: {cdf_summary} "
          f"max={max(iters)} non-converged={non_conv:.0%} (bound p95 <= "
          f"{CONVERGENCE_P95}) -> {'PASS' if ok else 'FAIL'}")
    assert ok
    assert ps[-1] == pytest.approx(1.0)


def test_criterion_6_formula_spot_checks():
    t0 = time.time()
    checks = []
    # two-hop relayed capacity at symmetric SNR 15, 10 MHz
    expected = 5e6 * math.log2(1 + 225.0 / 31.0)
    checks.append(abs(rm.af_capacity(15.0, 15.0, 10e6) - expected)
                  <= DERIVED_RTOL * expected)
    checks.append(rm.af_capacity(0.0, 50.0, 10e6) == 0.0)
    # equal time-share rate arithmetic
    caps = np.array([[20e6, 30e6], [20e6, 10e6]])
    m = rm.Matching([(0, 1), (0,)], num_radios=2)
    checks.append(abs(rm.sv_rate(m, 0, caps) - 40e6) <= DERIVED_RTOL * 40e6)
    # satisfaction sigmoid anchor points
    profile = rm.SatisfactionProfile(required_rate_bps=10e6)
    anchor = 1.0 / (1.0 + math.exp(-7.5))
    checks.append(abs(profile.evaluate(10e6) - anchor) <= DERIVED_RTOL)
    checks.append(profile.evaluate(10e6 - 7.5e6) == 0.5)
    # proposal marginals for weights (10, 30) with a single draw
    rng = np.random.default_rng(66)
    draws = np.array([rm.pma_propose([10e6, 30e6], quota=1, rng=rng)[0]
                      for _ in range(20000)])
    checks.append(abs((draws == 1).mean() - 0.75) < 0.01)
    # acceptance rule anchor points
    checks.append(rm.pma_accept(1.0, 1.0, 10.0) == 0.5)
    checks.append(rm.pma_accept(2.0, -1.0, 0.0) == 0.5)
    checks.append(1.0 - rm.pma_accept(1.0, 0.0, 100.0) < 1e-40)
    elapsed = time.time() - t0
    ok = all(checks) and elapsed < 1.0
    print(f"[criterion 6] formula spot checks: {sum(checks)}/{len(checks)} "
          f"anchors hold in {elapsed:.2f}s -> {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_7_stability_audit():
    br_failures = 0
    oracle_failures = 0
    witnesses = []
    for topo_seed, s_br, s_pma in _seed_pairs(271, 100, width=3):
        topology, profiles, caps = _instance(SMALL_PARAMS, topo_seed)
        m_br, _ = rm.run_best_response(
            topology, profiles, caps, rm.SolverConfig(kind="best_response"),
            rng=np.random.default_rng(s_br))
        br_failures += not rm.is_stable(m_br, topology, profiles, caps).stable
        m_star, _ = exhaustive_search(topology, profiles, caps)
        oracle_failures += not rm.is_stable(m_star, topology, profiles,
                                            caps).stable
        m_pma, _ = rm.run_pma(topology, profiles, caps,
                              rm.SolverConfig(kind="pma"),
                              rng=np.random.default_rng(s_pma))
        verdict = rm.is_stable(m_pma, topology, profiles, caps)
        if not verdict.stable:
            witnesses.append((topo_seed, verdict.witness))
    witness_fraction = len(witnesses) / 100
    ok = (br_failures == 0 and oracle_failures == 0
          and witness_fraction < PMA_WITNESS_FRACTION)
    print(f"[criterion 7] stability audit over 100 instances: best-response "
          f"failures {br_failures}, oracle failures {oracle_failures}, "
          f"stochastic-solver witness fraction {witness_fraction:.0%} "
          f"(witnesses: {witnesses if witnesses else 'none'}) "
          f"-> {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_8_determinism(tmp_path):
    config = rm.ExperimentConfig(
        topology=rm.TopologyParams(num_sources=5, num_relays=3,
                                   radios_per_relay=2,
                                   path_loss=rm.AIR_TO_AIR),
        solvers=[rm.SolverConfig(kind="pma"),
                 rm.SolverConfig(kind="substitutable")],
        replications=5, master_seed=99,
        metrics=("runs", "cdf", "trace"))
    rm.run_ensemble(config, out_dir=tmp_path / "a")
    rm.run_ensemble(config, out_dir=tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    mismatched = [name for name in names
                  if ((tmp_path / "a" / name).read_bytes()
                      != (tmp_path / "b" / name).read_bytes())]
    ok = not mismatched and len(names) >= 4
    print(f"[criterion 8] determinism: {len(names)} output files byte-compared, "
          f"mismatches {mismatched if mismatched else 'none'} "
          f"-> {'PASS' if ok else 'FAIL'}")
    assert ok
