"""End-to-end acceptance checks.

Design searches are verified against reference realisations
and operating-characteristic tables for the same configurations, then
against analytic and brute-force oracles that are independent of any
reference value. Each criterion prints one PASS/FAIL line.

Monte Carlo defaults: 100k simulated trials per estimate (tolerances
below cover Monte Carlo error plus optimizer and seed variation); the
analytic-oracle and brute-force checks raise the replication count.
"""

import time

import numpy as np
import pytest

import _oracles
from conftest import null_block, random_correlation
from multiseq import GSDesignSpec, OutcomeModel, SimConfig, search_gs_design
from multiseq.analysis import compare_at_effects, correlation_sweep
from multiseq.dtl import (
    DtLDesignSpec,
    DtLRealisation,
    conditional_power,
    estimate_dtl_oc,
    search_dtl_design,
)
from multiseq.gs import (
    DesignRealisation,
    calibrate_c,
    composite_transform,
    estimate_gs_oc,
)
from multiseq.model import Boundaries, StageSchedule, wang_tsiatis_boundaries
from multiseq.simulate import mean_shift_vector, null_blocks, simulate_null_block

SEED = 20260810
NSIMS = 100_000
ALPHA, BETA = 0.025, 0.2
SEARCH_TIME_BUDGET = 30.0  # seconds, single-threaded


def report(criterion: str, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    line = f"acceptance {criterion}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert not failures, f"{criterion}: " + "; ".join(failures)


def check(failures: list, ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def gs_spec(k, m, j, composite=False):
    return GSDesignSpec(n_outcomes=k, n_promising=m, n_stages=j, alpha=ALPHA,
                        beta=BETA, delta0=0.2, delta1=0.4, composite=composite)


def dtl_spec(k, m, k_max):
    return DtLDesignSpec(n_outcomes=k, n_promising=m, max_retained=k_max,
                         cp_lower=0.3, cp_upper=0.95, alpha=ALPHA, beta=BETA,
                         delta0=0.2, delta1=0.4)


def fixed_gs_realisation(spec, n, constant):
    """Realisation pinned to reference constants (not searched)."""
    boundaries = wang_tsiatis_boundaries(
        constant * spec.n_stages ** (0.5 - spec.wt_delta), spec.n_stages,
        spec.wt_delta)
    return DesignRealisation(kind="composite" if spec.composite else "gs",
                             spec=spec, n=n, n_total=n * spec.n_stages,
                             constant=constant, boundaries=boundaries,
                             alpha_star=float("nan"), power_star=float("nan"))


# ---------------------------------------------------------------------------
# criteria 1-2: group-sequential design reproduction


@pytest.fixture(scope="module")
def searched_k2():
    model = OutcomeModel.equicorrelated(2, 0.3)
    cfg = SimConfig(seed=SEED, nsims=NSIMS)
    times = {}
    start = time.perf_counter()
    mo = search_gs_design(gs_spec(2, 1, 3), model, null_block(3, model, cfg))
    times["mo"] = time.perf_counter() - start
    start = time.perf_counter()
    comp = search_gs_design(gs_spec(2, 1, 3, composite=True), model,
                            null_block(3, model, cfg))
    times["comp"] = time.perf_counter() - start
    return mo, comp, times


@pytest.fixture(scope="module")
def searched_k3():
    model = OutcomeModel.equicorrelated(3, 0.3)
    block = null_block(3, model, SimConfig(seed=SEED, nsims=NSIMS))
    mo1 = search_gs_design(gs_spec(3, 1, 3), model, block)
    comp1 = search_gs_design(gs_spec(3, 1, 3, composite=True), model, block)
    mo2 = search_gs_design(gs_spec(3, 2, 3), model, block)
    comp2 = search_gs_design(gs_spec(3, 2, 3, composite=True), model, block)
    return mo1, comp1, mo2, comp2


def test_criterion_1_two_outcome_reproduction(searched_k2):
    mo, comp, times = searched_k2
    failures = []
    check(failures, abs(mo.n_total - 57) <= 3, f"multi-outcome N={mo.n_total}, want 57+-3")
    check(failures, abs(mo.constant - 2.256490) <= 0.05,
          f"multi-outcome C={mo.constant:.6f}, want 2.256490+-0.05")
    check(failures, abs(comp.n_total - 60) <= 3, f"composite N={comp.n_total}, want 60+-3")
    check(failures, abs(comp.constant - 3.240066) <= 0.07,
          f"composite C={comp.constant:.6f}, want 3.240066+-0.07")
    check(failures, times["mo"] <= SEARCH_TIME_BUDGET,
          f"multi-outcome search took {times['mo']:.1f}s")
    check(failures, times["comp"] <= SEARCH_TIME_BUDGET,
          f"composite search took {times['comp']:.1f}s")
    report("criterion 1", failures,
           f"MO N={mo.n_total} C={mo.constant:.4f}, "
           f"comp N={comp.n_total} C={comp.constant:.4f}, "
           f"search times {times['mo']:.1f}s/{times['comp']:.1f}s")


def test_criterion_2_three_outcome_reproduction(searched_k3):
    mo1, comp1, mo2, comp2 = searched_k3
    failures = []
    check(failures, abs(mo1.n_total - 60) <= 3, f"m=1 N={mo1.n_total}, want 60+-3")
    check(failures, abs(mo1.constant - 2.394350) <= 0.05,
          f"m=1 C={mo1.constant:.6f}, want 2.394350+-0.05")
    check(failures, abs(comp1.n_total - 63) <= 3,
          f"m=1 composite N={comp1.n_total}, want 63+-3")
    check(failures, abs(comp1.constant - 4.387731) <= 0.09,
          f"m=1 composite C={comp1.constant:.6f}, want 4.387731+-0.09")
    check(failures, abs(mo2.n_total - 42) <= 3, f"m=2 N={mo2.n_total}, want 42+-3")
    check(failures, abs(mo2.constant - 1.579395) <= 0.05,
          f"m=2 C={mo2.constant:.6f}, want 1.579395+-0.05")
    check(failures, abs(comp2.constant - 4.389363) <= 0.09,
          f"m=2 composite C={comp2.constant:.6f}, want 4.389363+-0.09")
    report("criterion 2", failures,
           f"m=1 MO {mo1.n_total}/{mo1.constant:.4f} comp {comp1.n_total}/"
           f"{comp1.constant:.4f}; m=2 MO {mo2.n_total}/{mo2.constant:.4f} "
           f"comp C={comp2.constant:.4f}")


# ---------------------------------------------------------------------------
# criterion 3: operating characteristics over varying true effects

TABLE_K3_EFFECTS = [
    ((0.4, 0.4, 0.4), 0.96, 0.99, 1.13),
    ((0.4, 0.2, 0.2), 0.81, 0.82, 0.99),
    ((0.4, 0.0, 0.0), 0.76, 0.30, 0.87),
    ((0.4, -0.2, -0.2), 0.76, 0.02, 0.84),
    ((0.0, 0.0, 0.0), 0.02, 0.02, 0.96),
    ((0.3, 0.3, 0.3), 0.78, 0.90, 1.07),
    ((0.2, 0.2, 0.2), 0.44, 0.58, 1.00),
]


def test_criterion_3_effect_table_three_outcomes():
    # evaluated at the reference realisations the table was produced
    # from: multi-outcome {N=60, C=2.394350}, composite {N=63, C=4.387731}
    model = OutcomeModel.equicorrelated(3, 0.3)
    cfg = SimConfig(seed=SEED + 3, nsims=NSIMS)
    real_mo = fixed_gs_realisation(gs_spec(3, 1, 3), 20, 2.394350)
    real_comp = fixed_gs_realisation(gs_spec(3, 1, 3, composite=True), 21, 4.387731)
    mus = [row[0] for row in TABLE_K3_EFFECTS]
    pairs = compare_at_effects(real_mo, real_comp, model, mus, null_blocks([3], model, cfg))
    failures = []
    for (mu, p_mo, p_comp, ess_ratio), (oc_mo, oc_comp) in zip(TABLE_K3_EFFECTS, pairs,
                                                                 strict=True):
        check(failures, abs(oc_mo.p_reject - p_mo) <= 0.02,
              f"mu={mu}: R_MO={oc_mo.p_reject:.3f}, want {p_mo}+-0.02")
        check(failures, abs(oc_comp.p_reject - p_comp) <= 0.02,
              f"mu={mu}: R_comp={oc_comp.p_reject:.3f}, want {p_comp}+-0.02")
        ratio = oc_mo.ess / oc_comp.ess
        check(failures, abs(ratio - ess_ratio) <= 0.04,
              f"mu={mu}: ESS ratio={ratio:.3f}, want {ess_ratio}+-0.04")
    report("criterion 3", failures, f"{len(TABLE_K3_EFFECTS)} effect rows")


# ---------------------------------------------------------------------------
# criteria 4-5: drop-the-loser reproduction and effect table


@pytest.fixture(scope="module")
def searched_dtl():
    cfg = SimConfig(seed=SEED, nsims=NSIMS)
    results = {}
    for k in (2, 3):
        model = OutcomeModel.equicorrelated(k, 0.3)
        blocks = null_blocks([1, 2], model, cfg)
        results[k] = (
            search_dtl_design(dtl_spec(k, 1, 1), model, blocks[2], nmin=2, nmax=200),
            search_gs_design(gs_spec(k, 1, 1), model, blocks[1]),
        )
    return results


def test_criterion_4_dtl_reproduction(searched_dtl):
    expected = {
        2: (2.273714, 64, 4, 2.221584, 56, 3),
        3: (2.435647, 72, 4, 2.380403, 59, 3),
    }
    failures = []
    details = []
    for k, (dtl_real, ss_real) in searched_dtl.items():
        r_ref, n_ref, n_tol, c_ref, n_ss_ref, n_ss_tol = expected[k]
        check(failures, abs(dtl_real.r - r_ref) <= 0.05,
              f"K={k}: r={dtl_real.r:.6f}, want {r_ref}+-0.05")
        check(failures, abs(dtl_real.n_total - n_ref) <= n_tol,
              f"K={k}: N={dtl_real.n_total}, want {n_ref}+-{n_tol}")
        check(failures, abs(ss_real.constant - c_ref) <= 0.05,
              f"K={k}: single-stage r={ss_real.constant:.6f}, want {c_ref}+-0.05")
        check(failures, abs(ss_real.n_total - n_ss_ref) <= n_ss_tol,
              f"K={k}: single-stage N={ss_real.n_total}, want {n_ss_ref}+-{n_ss_tol}")
        details.append(f"K={k}: dtl {dtl_real.n_total}/{dtl_real.r:.4f} "
                       f"ss {ss_real.n_total}/{ss_real.constant:.4f}")
    report("criterion 4", failures, "; ".join(details))


TABLE_DTL_EFFECTS = [
    ((0.4, 0.4, 0.4), 0.95, 0.96, 0.80, 0.47),
    ((0.4, 0.2, 0.2), 0.81, 0.80, 0.95, 0.52),
    ((0.4, 0.0, 0.0), 0.82, 0.76, 0.97, 0.53),
    ((0.4, -0.2, -0.2), 0.83, 0.76, 0.97, 0.53),
    ((0.0, 0.0, 0.0), 0.02, 0.02, 0.96, 0.52),
    ((0.3, 0.3, 0.3), 0.77, 0.77, 0.97, 0.53),
    ((0.2, 0.2, 0.2), 0.43, 0.43, 1.09, 0.57),
]


@pytest.fixture(scope="module")
def dtl_table_pairs():
    # reference realisations behind the three-outcome comparison table:
    # drop-the-loser {r=2.435647, N=72}, single-stage {r=2.380403, N=59}
    model = OutcomeModel.equicorrelated(3, 0.3)
    cfg = SimConfig(seed=SEED + 5, nsims=NSIMS)
    dtl_real = DtLRealisation(spec=dtl_spec(3, 1, 1), n=36, n_total=72,
                              r=2.435647, alpha_star=float("nan"),
                              power_star=float("nan"))
    ss_real = fixed_gs_realisation(gs_spec(3, 1, 1), 59, 2.380403)
    mus = [row[0] for row in TABLE_DTL_EFFECTS]
    return compare_at_effects(dtl_real, ss_real, model, mus, null_blocks([1, 2], model, cfg))


def test_criterion_5_dtl_table_rejection_and_ess(dtl_table_pairs):
    failures = []
    for (mu, p_dtl, p_ss, ess_ratio, _), (oc_dtl, oc_ss) in zip(TABLE_DTL_EFFECTS,
                                                                 dtl_table_pairs, strict=True):
        check(failures, abs(oc_dtl.p_reject - p_dtl) <= 0.02,
              f"mu={mu}: p_DtL={oc_dtl.p_reject:.3f}, want {p_dtl}+-0.02")
        check(failures, abs(oc_ss.p_reject - p_ss) <= 0.02,
              f"mu={mu}: p_SS={oc_ss.p_reject:.3f}, want {p_ss}+-0.02")
        ratio = oc_dtl.ess / oc_ss.ess
        check(failures, abs(ratio - ess_ratio) <= 0.04,
              f"mu={mu}: ESS ratio={ratio:.3f}, want {ess_ratio}+-0.04")
    report("criterion 5 (p, ESS)", failures, f"{len(TABLE_DTL_EFFECTS)} effect rows")


def test_criterion_5_dtl_table_enm_ratio(dtl_table_pairs):
    # ENM counts n measurements per outcome per stage: all K outcomes in
    # stage one, the retained outcomes in stage two. A continuing trial
    # has at most K - m outcomes below cp_l, so with k_max <= m it
    # retains exactly min(k_max, eligible) = k_max outcomes, and
    #     ENM_DtL = K*n + k_max*(ESS_DtL - n),    ENM_SS = K*N_ss.
    # The expected ratio therefore follows from the table's own ESS-ratio
    # column, whose +-0.04 tolerance propagates to +-0.04*k_max/K, and it
    # can never fall below K*n / (K*N_ss) = 108/177 = 0.610.
    # The table's last column (0.47..0.57) is not asserted: each entry is
    # (n + ESS)/(K*N_ss) to rounding, which leaves out n stage-one
    # measurements, so no design with this definition can attain it.
    k, n, k_max, n_ss = 3, 36, 1, 59
    floor = k * n / (k * n_ss)
    tol = 0.04 * k_max / k
    failures = []
    for (mu, _, _, ess_ratio, _), (oc_dtl, oc_ss) in zip(TABLE_DTL_EFFECTS, dtl_table_pairs,
                                                            strict=True):
        enm_a, enm_b, ess_a = oc_dtl.enm, oc_ss.enm, oc_dtl.ess
        want = (k * n + k_max * (ess_ratio * n_ss - n)) / (k * n_ss)
        ratio = enm_a / enm_b
        check(failures, abs(ratio - want) <= tol and ratio >= floor,
              f"mu={mu}: ENM ratio={ratio:.3f}, want {want:.3f}+-{tol:.3f} "
              f"(from ESS ratio {ess_ratio}) and >= floor {floor:.3f}")
        identity = k * n + k_max * (ess_a - n)
        check(failures, abs(enm_a - identity) <= 1e-9 * identity,
              f"mu={mu}: ENM_DtL={enm_a:.6f}, want K*n + k_max*(ESS-n) = {identity:.6f}")
        check(failures, enm_b == k * n_ss,
              f"mu={mu}: ENM_SS={enm_b:.6f}, want K*N_ss = {k * n_ss}")
    report("criterion 5 (ENM)", failures, f"{len(TABLE_DTL_EFFECTS)} effect rows")


# ---------------------------------------------------------------------------
# criterion 6: qualitative trends over correlation

TREND_NSIMS = 10_000
GS_TREND_CONFIGS = [(2, 1), (4, 2), (6, 1), (6, 3), (10, 5)]
DTL_TREND_CONFIGS = [(2, 1, 1), (6, 1, 3), (6, 1, 5), (6, 3, 3), (6, 3, 5)]


def sweep_column(sweep, value) -> np.ndarray:
    """value(real_a, real_b) at each correlation of a sweep, NaN where a search failed."""
    return np.array([np.nan if point is None else value(*point) for point in sweep.points])


def lfc_ratios(sweep, name: str) -> np.ndarray:
    """A/B ratio of an OC field ("ess" or "enm") under the LFC per correlation."""
    return sweep_column(sweep, lambda a, b: getattr(a.oc_lfc, name) / getattr(b.oc_lfc, name))


@pytest.fixture(scope="module")
def gs_trend_curves():
    rhos = (0.0, 0.5, 0.6, 0.7, 0.8)
    cfg = SimConfig(seed=SEED + 6, nsims=TREND_NSIMS)
    curves = {(k, m): correlation_sweep(gs_spec(k, m, 3),
                                        gs_spec(k, m, 3, composite=True),
                                        rhos, cfg)
              for k, m in GS_TREND_CONFIGS}
    return rhos, curves


def test_criterion_6_gs_composite_ess_ratio_decreases(gs_trend_curves):
    rhos, curves = gs_trend_curves
    failures = []
    for (k, m), sweep in curves.items():
        check(failures, None not in sweep.points, f"K={k},m={m}: sweep point failed")
        ratios = lfc_ratios(sweep, "ess")
        check(failures, ratios[-1] < ratios[0],
              f"K={k},m={m}: ESS ratio {ratios[0]:.3f}->{ratios[-1]:.3f} not decreasing")
    report("criterion 6 (sequential-vs-composite trend)", failures,
           f"{len(GS_TREND_CONFIGS)} configurations, rho 0 -> 0.8")


def test_criterion_6_gs_composite_superiority_at_high_correlation(gs_trend_curves):
    # Superiority as it holds at high replication: at rho >= 0.5 the
    # sequential design never needs a larger per-stage n than the
    # composite, and at rho >= 0.7 its ESS under the LFC is strictly
    # smaller. The same sweep at 10^6 replications (seed SEED + 6),
    # sequential/composite n and ESS ratio:
    #
    #   K, m    rho 0.5        0.6            0.7            0.8
    #   2, 1    20/23 0.886    20/24 0.845    20/26 0.781    19/27 0.716
    #   4, 2    18/19 0.959    19/21 0.913    19/23 0.838    20/26 0.779
    #   6, 1    23/29 0.831    24/33 0.754    23/37 0.646    23/41 0.577
    #   6, 3    17/18 0.961    19/20 0.955    20/23 0.880    20/25 0.812
    #  10, 5    17/17 1.005    19/19 0.999    20/22 0.918    21/25 0.853
    #
    # K=10, m=5 ties on n at rho = 0.5 and 0.6, and there the ESS ratio
    # is not below 1: seeds 1 and 2 give 1.006 and 1.007 at rho = 0.5,
    # 1.002 and 1.003 at rho = 0.55, 0.999 and 1.000 at rho = 0.6 (paired
    # SE 0.0001). At rho = 0.5, n = 17, the calibrated boundaries
    # evaluated row by row with evaluate_gs_row on 10^6 independent PCG64
    # + SVD draws (_oracles' generator) give 1.0053 +- 0.0001, against the
    # engine's 1.0053 +- 0.0001. So "ESS ratio < 1 at every rho >= 0.5"
    # is false for that configuration, and a ratio below 1 at rho = 0.6
    # with TREND_NSIMS replications is Monte Carlo luck.
    rhos, curves = gs_trend_curves
    high = np.asarray(rhos) >= 0.5
    higher = np.asarray(rhos) >= 0.7
    failures = []
    for (k, m), sweep in curves.items():
        n_a = sweep_column(sweep, lambda a, b: a.n)
        n_b = sweep_column(sweep, lambda a, b: b.n)
        ess_ratio = lfc_ratios(sweep, "ess")
        check(failures, bool((n_a[high] <= n_b[high]).all()),
              f"K={k},m={m}: sequential n {n_a[high]} above composite n "
              f"{n_b[high]} at rho>=0.5")
        check(failures, bool((ess_ratio[higher] < 1.0).all()),
              f"K={k},m={m}: ESS ratio not below 1 at rho>=0.7: "
              f"{ess_ratio[higher].round(3)}")
    report("criterion 6 (sequential-vs-composite superiority)", failures,
           f"{len(GS_TREND_CONFIGS)} configurations, n at rho >= 0.5, "
           f"ESS at rho >= 0.7")


def test_criterion_6_dtl_versus_single_stage_trends():
    rhos = tuple(np.round(np.arange(0.0, 0.81, 0.1), 1))
    cfg = SimConfig(seed=SEED + 7, nsims=TREND_NSIMS)
    failures = []
    for k, m, k_max in DTL_TREND_CONFIGS:
        sweep = correlation_sweep(dtl_spec(k, m, k_max), gs_spec(k, m, 1), rhos,
                                  cfg, nmin=2, nmax=300)
        ess_ratio, enm_ratio = lfc_ratios(sweep, "ess"), lfc_ratios(sweep, "enm")
        check(failures, None not in sweep.points, f"K={k},m={m}: sweep point failed")
        check(failures, ess_ratio[-1] < ess_ratio[0],
              f"K={k},m={m},K_max={k_max}: ESS ratio "
              f"{ess_ratio[0]:.3f}->{ess_ratio[-1]:.3f} not decreasing")
        check(failures, bool((enm_ratio < 1.0).all()),
              f"K={k},m={m},K_max={k_max}: ENM ratio reaches "
              f"{enm_ratio.max():.3f}")
    report("criterion 6 (drop-the-loser vs single-stage)", failures,
           f"{len(DTL_TREND_CONFIGS)} configurations x {len(rhos)} correlations")


# ---------------------------------------------------------------------------
# criterion 7: analytic calibration oracles

ANALYTIC_CASES = [
    # (K, m, rho, reference constant) for single-stage designs; the
    # references are exact normal quantiles, independent of any
    # reference design value
    (1, 1, 0.0, 1.9599640),   # Phi^-1(0.975)
    (2, 1, 0.0, 2.2389644),   # solves 1 - Phi(C)^2 = 0.025
    (2, 2, 0.0, 1.0022398),   # solves (1 - Phi(C))^2 = 0.025
]


def test_criterion_7_analytic_quantile_oracles():
    failures = []
    details = []
    for i, (k, m, rho, reference) in enumerate(ANALYTIC_CASES):
        model = OutcomeModel.equicorrelated(k, rho)
        block = simulate_null_block(StageSchedule.equal(1, 1), model,
                                    SimConfig(seed=SEED + 70 + i, nsims=1_000_000))
        constant, _ = calibrate_c(block, gs_spec(k, m, 1))
        check(failures, abs(constant - reference) <= 0.02,
              f"K={k},m={m}: C={constant:.5f}, want {reference}+-0.02")
        details.append(f"{constant:.4f}/{reference:.4f}")
    report("criterion 7", failures, ", ".join(details))


# ---------------------------------------------------------------------------
# criterion 8: property suites on randomized inputs


def test_criterion_8_empirical_covariance_matches_analytic():
    rng = np.random.default_rng(SEED + 80)
    nsims = 20_000
    bound = 5.0 * np.sqrt(2.0 / nsims)
    failures = []
    for case in range(200):
        j = int(rng.integers(1, 5))
        k = int(rng.integers(1, 6))
        sizes = tuple(int(s) for s in rng.integers(1, 20, size=j))
        schedule = StageSchedule(stage_sizes=sizes)
        model = OutcomeModel(sigma=rng.uniform(0.5, 2.0, size=k),
                             rho=random_correlation(rng, k))
        block = simulate_null_block(schedule, model,
                                    SimConfig(seed=SEED + 1000 + case, nsims=nsims))
        emp = block.values.T @ block.values / nsims
        analytic = _oracles.analytic_covariance(schedule, model)
        deviation = np.abs(emp - analytic).max()
        check(failures, deviation < bound,
              f"case {case} (J={j}, K={k}): deviation {deviation:.4f} > {bound:.4f}")
    report("criterion 8 (covariance)", failures, "200 random configurations")


def test_criterion_8_decision_totality():
    rng = np.random.default_rng(SEED + 81)
    failures = []
    for case in range(200):
        j = int(rng.integers(1, 6))
        k = int(rng.integers(1, 6))
        m = int(rng.integers(1, k + 1))
        b = wang_tsiatis_boundaries(float(rng.uniform(0.3, 4.0)), j,
                                    float(rng.uniform(-0.2, 0.5)))
        row = rng.normal(scale=float(rng.uniform(0.5, 4.0)), size=j * k)
        path = _oracles.evaluate_gs_row(row, b, n_promising=m)
        check(failures, path.decision in ("go", "nogo") and 1 <= path.stop_stage <= j,
              f"case {case}: no decision for J={j}, K={k}, m={m}")
    report("criterion 8 (totality)", failures, "200 random rows")


def test_criterion_8_enm_equals_outcomes_times_ess():
    rng = np.random.default_rng(SEED + 82)
    failures = []
    for case in range(200):
        j = int(rng.integers(1, 5))
        k = int(rng.integers(1, 5))
        m = int(rng.integers(1, k + 1))
        n = int(rng.integers(1, 40))
        model = OutcomeModel.equicorrelated(k, float(rng.uniform(0, 0.8)))
        block = simulate_null_block(StageSchedule.equal(1, j), model,
                                    SimConfig(seed=SEED + 2000 + case, nsims=200))
        spec = GSDesignSpec(n_outcomes=k, n_promising=m, n_stages=j, alpha=ALPHA,
                            beta=BETA, delta0=0.0, delta1=0.4)
        b = wang_tsiatis_boundaries(float(rng.uniform(0.5, 3.0)), j)
        oc = estimate_gs_oc(block, b, spec, StageSchedule.equal(n, j))
        check(failures, oc.enm == k * oc.ess,
              f"case {case}: enm {oc.enm} != K*ess {k * oc.ess}")
    report("criterion 8 (ENM identity)", failures, "200 random estimates")


def test_criterion_8_cp_inversion_round_trip():
    rng = np.random.default_rng(SEED + 83)
    failures = []
    for case in range(200):
        n = int(rng.integers(2, 300))
        sigma = float(rng.uniform(0.2, 4.0))
        i1, i2 = n / sigma**2, 2 * n / sigma**2
        r = float(rng.uniform(0.5, 4.0))
        effect = float(rng.uniform(-0.2, 1.0))
        cp_l = float(rng.uniform(0.001, 0.7))
        cp_u = float(rng.uniform(cp_l + 0.01, 0.999))
        lo, hi = _oracles.invert_cp_boundaries(cp_l, cp_u, r, i1, i2, effect)
        err = max(abs(conditional_power(lo, r, i1, i2, effect) - cp_l),
                  abs(conditional_power(hi, r, i1, i2, effect) - cp_u))
        check(failures, err < 1e-10, f"case {case}: roundtrip error {err:.2e}")
    report("criterion 8 (CP roundtrip)", failures, "200 random inversions")


def test_criterion_8_composite_single_outcome_equivalence():
    rng = np.random.default_rng(SEED + 84)
    failures = []
    for case in range(200):
        j = int(rng.integers(1, 5))
        model = OutcomeModel.equicorrelated(1, 0.0)
        block = simulate_null_block(StageSchedule.equal(1, j), model,
                                    SimConfig(seed=SEED + 3000 + case, nsims=300))
        transformed = composite_transform(block)
        check(failures, transformed is block,
              f"case {case}: single-outcome composite not a passthrough")
        b = wang_tsiatis_boundaries(float(rng.uniform(0.5, 3.0)), j)
        spec = gs_spec(1, 1, j)
        schedule = StageSchedule.equal(int(rng.integers(1, 30)), j)
        check(failures,
              estimate_gs_oc(block, b, spec, schedule)
              == estimate_gs_oc(transformed, b, spec, schedule),
              f"case {case}: operating characteristics differ")
    report("criterion 8 (composite K=1)", failures, "200 random blocks")


def test_criterion_8_dtl_degenerate_threshold_equivalence():
    # disabling both thresholds and lifting the retention cap reduces the
    # two-stage design to the single-stage m-of-K rule on the final
    # statistics, row for row
    rng = np.random.default_rng(SEED + 85)
    failures = []
    for case in range(200):
        k = int(rng.integers(2, 5))
        m = int(rng.integers(1, k + 1))
        n = int(rng.integers(3, 50))
        r = float(rng.uniform(0.8, 3.0))
        model = OutcomeModel.equicorrelated(k, float(rng.uniform(0, 0.8)))
        block = simulate_null_block(StageSchedule.equal(1, 2), model,
                                    SimConfig(seed=SEED + 4000 + case, nsims=300))
        mu = rng.uniform(-0.3, 0.5, size=k)
        shift = mean_shift_vector(mu, StageSchedule.equal(n, 2), model)
        spec = DtLDesignSpec(n_outcomes=k, n_promising=m, max_retained=k - 1,
                             cp_lower=0.0, cp_upper=1.0, alpha=ALPHA, beta=BETA,
                             delta0=0.0, delta1=0.4)
        oc = estimate_dtl_oc(block, spec, model, r, n, shift=shift, max_retained=k)
        stage2 = block.values[:, k:] + shift[None, k:]
        go, _ = _oracles.decide_rows(stage2, 1, k, m, [r], [r])
        check(failures, oc.p_reject == float(go.mean()),
              f"case {case}: p {oc.p_reject} != single-stage {float(go.mean())}")
        check(failures, oc.pet == 0.0, f"case {case}: pet {oc.pet} != 0")
    report("criterion 8 (degenerate drop-the-loser)", failures, "200 random cases")


def test_criterion_8_thread_count_determinism():
    rng = np.random.default_rng(SEED + 86)
    failures = []
    for case in range(200):
        j = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        model = OutcomeModel.equicorrelated(k, float(rng.uniform(0, 0.7)))
        schedule = StageSchedule.equal(1, j)
        cfg = SimConfig(seed=SEED + 5000 + case,
                        nsims=int(rng.integers(100, 2000)),
                        chunk_size=int(rng.integers(50, 400)))
        reference = simulate_null_block(schedule, model, cfg, threads=1)
        for threads in (2, 5):
            other = simulate_null_block(schedule, model, cfg, threads=threads)
            check(failures, np.array_equal(reference.values, other.values),
                  f"case {case}: threads={threads} changed the block")
    report("criterion 8 (thread determinism)", failures, "200 random configs")


# ---------------------------------------------------------------------------
# criterion 9: brute-force equivalence for single-stage designs


def test_criterion_9_single_stage_brute_force():
    rng = np.random.default_rng(SEED + 90)
    engine_nsims, oracle_nsims = 1_000_000, 10_000_000
    failures = []
    for case in range(10):
        k = int(rng.integers(1, 5))
        m = int(rng.integers(1, k + 1))
        rho = float(rng.uniform(0.0, 0.7))
        constant = float(rng.uniform(1.2, 2.6))
        n = int(rng.integers(10, 60))
        mu = rng.uniform(-0.2, 0.5, size=k)
        model = OutcomeModel.equicorrelated(k, rho)
        schedule = StageSchedule.equal(n, 1)
        block = simulate_null_block(StageSchedule.equal(1, 1), model,
                                    SimConfig(seed=SEED + 6000 + case,
                                              nsims=engine_nsims))
        spec = GSDesignSpec(n_outcomes=k, n_promising=m, n_stages=1, alpha=ALPHA,
                            beta=BETA, delta0=-1.0, delta1=1.0)
        bounds = Boundaries(lower=(constant,), upper=(constant,))
        shift = mean_shift_vector(mu, schedule, model)
        engine = estimate_gs_oc(block, bounds, spec, schedule, shift=shift).p_reject
        oracle = _oracles.direct_rejection_estimate(
            shift, model.rho, constant, m, oracle_nsims, seed=SEED + 7000 + case)
        pbar = 0.5 * (engine + oracle)
        se = np.sqrt(max(pbar * (1 - pbar), 1e-12)
                     * (1 / engine_nsims + 1 / oracle_nsims))
        check(failures, abs(engine - oracle) <= max(3 * se, 1e-6),
              f"case {case} (K={k}, m={m}, rho={rho:.2f}): engine {engine:.5f} "
              f"vs oracle {oracle:.5f}, 3*SE {3 * se:.5f}")
    report("criterion 9", failures, "10 random single-stage settings")
