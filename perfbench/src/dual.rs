//! The `dual-stage` workload: the batch planner's full analysis, run
//! in-process through the library.
//!
//! Per generated instance: build the φ₁ engine, solve Stage I exactly
//! (`lattice`, one thread) at every deadline of a sweep, run Stage II
//! (`RasPolicy::Robust` over the runtime availability cases) on the
//! mapping at the chosen deadline, and derive (ρ₁, ρ₂). Then the paper's
//! 3-app instance in all four scenarios. An operation is one Stage-I
//! solve or one Stage-II grid.

use crate::check;
use crate::gen::{self, Instance};
use crate::outcome::Outcome;
use crate::stats::{mean, median, min, peak_rss_mib, quantile, ratio};
use crate::trace::{trace_path, Tracer};
use cdsf_core::simulation::simulate_grid;
use cdsf_core::{Cdsf, CellResult, ImPolicy, RasPolicy, ScenarioResult, SimParams};
use cdsf_ra::{Allocation, Lattice, LatticeScratch, LatticeSolution, Phi1Engine};
use cdsf_system::parallel_time::amdahl_factor;
use cdsf_system::{Batch, Platform};
use cdsf_workloads::paper;
use std::time::Instant;

/// Worker threads for engine builds and the Stage-II grid.
const THREADS: usize = 2;
/// Stage-II replicates per grid cell on the generated instances.
const REPLICATES: usize = 100;
/// Replicates on the paper instance (its published ρ₂ needs them).
const PAPER_REPLICATES: usize = 25;
/// The chosen Δ of a sweep is the first whose φ₁ reaches this.
const TARGET_PHI1: f64 = 0.5;
/// Analyses timed to measure set-up time; `setup_s` is their median.
const SETUPS: usize = 5;

/// Everything one round of analyses produced, for the checks and the
/// per-layer figures.
#[derive(Default)]
struct Round {
    ops: u64,
    failed: u64,
    analyses: u64,
    /// Per analysis, in round order, the wall time of each of its timed
    /// steps (an engine build, a solve, an evaluation, a Stage-II grid, a
    /// (ρ₁, ρ₂) derivation) in the order it ran them. The benchmark's own
    /// checks run between steps and are not timed.
    steps_ms: Vec<Vec<f64>>,
    phi1: Vec<f64>,
    lattice_nodes: u64,
    lattice_pruned: u64,
    replicates: u64,
    chunks: Vec<f64>,
    over_one: u64,
    /// Paper-instance Stage-I φ₁, summed, and the brute-force optimum
    /// summed over the same scenarios.
    paper_phi1: f64,
    paper_opt: f64,
}

/// Runs `f` as the current analysis' next timed step.
fn step<T>(round: &mut Round, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let value = f();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    round
        .steps_ms
        .last_mut()
        .expect("a step runs inside an analysis")
        .push(ms);
    value
}

/// One generated instance's analysis.
fn analyse(
    inst: &Instance,
    sim_seed: u64,
    round: &mut Round,
    out: &mut Outcome,
    tr: &mut Tracer,
    op0: u64,
) {
    let op = op0;
    let engine = step(round, || {
        tr.span("engine.build", op, |_| {
            Phi1Engine::build_parallel(&inst.batch, &inst.reference, THREADS)
        })
    });
    let engine = match engine {
        Ok(e) => e,
        Err(e) => {
            out.error(format!("{}: engine build failed: {e}", inst.name));
            return;
        }
    };
    let lattice = Lattice { threads: 1 };
    let mut scratch = LatticeScratch::new();
    let mut chosen: Option<(f64, Allocation, f64)> = None;
    let mut last = None;
    let mut prev_phi1 = 0.0;
    for &deadline in &inst.sweep {
        let solved = step(round, || {
            tr.span("alloc.lattice", op, |_| {
                lattice.solve_with_engine(&inst.reference, &engine, deadline, &mut scratch)
            })
        });
        round.ops += 1;
        let (solution, report) = match solved {
            Ok(s) => s,
            Err(e) => {
                round.failed += 1;
                out.error(format!("{} Δ={deadline}: lattice failed: {e}", inst.name));
                continue;
            }
        };
        round.lattice_nodes += report.counters.nodes;
        round.lattice_pruned += report.counters.screen_pruned
            + report.counters.confirm_pruned
            + report.counters.capacity_pruned;
        let alloc = solution.allocation().clone();
        let phi1 = match solution {
            LatticeSolution::Optimal { phi1, .. } => phi1,
            LatticeSolution::Infeasible { .. } => 0.0,
        };
        let report = step(round, || {
            tr.span("robustness.evaluate", op, |_| {
                cdsf_ra::robustness::evaluate_with_engine(
                    &engine,
                    &inst.batch,
                    &inst.reference,
                    &alloc,
                    deadline,
                )
            })
        });
        let Ok(report) = report else {
            out.error(format!("{} Δ={deadline}: evaluation failed", inst.name));
            continue;
        };
        round.over_one += report.per_app.iter().filter(|&&p| p > 1.0).count() as u64;
        // A probability above 1 is the named fault: the solve failed.
        if !(0.0..=1.0).contains(&phi1) {
            round.failed += 1;
            continue;
        }
        let groups: Vec<(usize, u32)> = alloc
            .assignments()
            .iter()
            .map(|a| (a.proc_type.0, a.procs))
            .collect();
        let ans = check::Answer {
            groups: &groups,
            per_app: &report.per_app,
            joint: phi1,
        };
        if let Err(e) = check::check_answer(&ans, &inst.batch, &inst.reference, deadline) {
            out.error(format!("{} Δ={deadline}: {e}", inst.name));
        }
        if phi1 < prev_phi1 {
            out.error(format!(
                "{} Δ={deadline}: φ₁ fell from {prev_phi1} to {phi1} as Δ grew",
                inst.name
            ));
        }
        prev_phi1 = phi1;
        round.phi1.push(phi1);
        if chosen.is_none() && phi1 >= TARGET_PHI1 {
            chosen = Some((deadline, alloc.clone(), phi1));
        }
        last = Some((deadline, alloc, phi1));
    }
    // The first Δ reaching the target φ₁, else the loosest that solved.
    let Some((deadline, alloc, phi1)) = chosen.or(last) else {
        out.error(format!("{}: no deadline of the sweep solved", inst.name));
        return;
    };
    let sim = SimParams {
        replicates: REPLICATES,
        threads: THREADS,
        seed: sim_seed,
        ..SimParams::default()
    };
    let cells = step(round, || {
        tr.span("simulation.grid", op, |_| {
            simulate_grid(
                &inst.batch,
                &alloc,
                &inst.cases,
                &RasPolicy::Robust.techniques(),
                deadline,
                &sim,
            )
        })
    });
    round.ops += 1;
    let cells = match cells {
        Ok(c) => c,
        Err(e) => {
            round.failed += 1;
            out.error(format!("{}: Stage II failed: {e}", inst.name));
            return;
        }
    };
    check_cells(
        &cells,
        &inst.batch,
        &inst.cases,
        &alloc,
        &RasPolicy::Robust,
        sim.replicates,
        &inst.name,
        out,
    );
    round.replicates += (cells.len() * sim.replicates) as u64;
    round.chunks.extend(cells.iter().map(|c| c.mean_chunks));
    let cdsf = Cdsf::builder()
        .batch(inst.batch.clone())
        .reference_platform(inst.reference.clone())
        .runtime_cases(inst.cases.clone())
        .deadline(deadline)
        .sim_params(sim)
        .build()
        .expect("generated instances are valid");
    let result = ScenarioResult {
        scenario: None,
        im_name: "lattice".to_string(),
        ras_name: "robust RAS".to_string(),
        allocation: alloc,
        phi1,
        per_app_prob: Vec::new(),
        expected_times: Vec::new(),
        cells,
        deadline,
    };
    let rho = step(round, || {
        tr.span("core.system_robustness", op, |_| {
            cdsf.system_robustness(&result)
        })
    });
    if rho.rho1 != phi1 || !(0.0..1.0).contains(&rho.rho2) {
        out.error(format!(
            "{}: (ρ₁, ρ₂) = ({}, {}) out of range",
            inst.name, rho.rho1, rho.rho2
        ));
    }
    round.analyses += 1;
}

/// Every Stage-II cell has `replicates` replicates, a hit rate in [0, 1]
/// and a mean makespan no lower than half the application's dedicated
/// expected time on its group (availability ≤ 1 only slows it).
#[allow(clippy::too_many_arguments)]
fn check_cells(
    cells: &[CellResult],
    batch: &Batch,
    cases: &[Platform],
    alloc: &Allocation,
    ras: &RasPolicy,
    replicates: usize,
    name: &str,
    out: &mut Outcome,
) {
    let techniques = ras.techniques().len();
    if cells.len() != batch.len() * cases.len() * techniques {
        out.error(format!("{name}: {} Stage-II cells", cells.len()));
    }
    for c in cells {
        let Some(a) = alloc.assignment(c.app) else {
            out.error(format!("{name}: cell for unknown app {}", c.app));
            continue;
        };
        let app = &batch.apps()[c.app];
        let dedicated = app.expected_exec_time(a.proc_type).unwrap_or(f64::NAN)
            * amdahl_factor(app.serial_fraction(), a.procs);
        if c.replicates != replicates
            || !(0.0..=1.0).contains(&c.deadline_hit_rate)
            || !(c.mean_makespan >= 0.5 * dedicated)
        {
            out.error(format!(
                "{name}: cell app {} case {} {}: {} replicates, hit rate {}, mean makespan {} (bound {})",
                c.app,
                c.case,
                c.technique,
                c.replicates,
                c.deadline_hit_rate,
                c.mean_makespan,
                0.5 * dedicated
            ));
        }
    }
}

/// The paper's 3-app instance in all four scenarios, checked against
/// the closed forms of DESIGN §1.
fn paper_scenarios(round: &mut Round, out: &mut Outcome, tr: &mut Tracer, op: u64) {
    let cdsf = Cdsf::builder()
        .batch(paper::batch())
        .reference_platform(paper::platform())
        .runtime_cases((1..=paper::NUM_CASES).map(paper::platform_case).collect())
        .deadline(paper::DEADLINE)
        .sim_params(SimParams {
            replicates: PAPER_REPLICATES,
            threads: THREADS,
            ..SimParams::default()
        })
        .build()
        .expect("the paper instance is valid");
    let optimum = check::brute_force_phi1(cdsf.batch(), cdsf.reference(), cdsf.deadline());
    let naive_times = [3_800.0, 1_306.7, 4_600.0];
    let robust_times = [1_365.0, 1_960.0, 2_700.0];
    for s in cdsf_core::Scenario::all() {
        let (im, ras) = s.policies();
        let stage1 = step(round, || {
            tr.span("stage1.paper", op, |_| cdsf.stage_one(&im))
        });
        round.ops += 1;
        let Ok((alloc, report)) = stage1 else {
            round.failed += 1;
            out.error(format!("paper scenario {}: Stage I failed", s.number()));
            continue;
        };
        let (times, phi1) = if matches!(im, ImPolicy::Naive) {
            (naive_times, 0.26)
        } else {
            (robust_times, 0.745)
        };
        for (got, want) in report.expected_times.iter().zip(times) {
            if !((got - want).abs() <= 0.005 * want) {
                out.error(format!(
                    "paper scenario {}: expected time {got}, closed form {want}",
                    s.number()
                ));
            }
        }
        if !((report.joint - phi1).abs() <= 0.02) {
            out.error(format!(
                "paper scenario {}: φ₁ {} vs {phi1}",
                s.number(),
                report.joint
            ));
        }
        if im.is_robust() && !((report.joint - optimum).abs() <= check::PHI_TOL) {
            out.error(format!(
                "paper scenario {}: exhaustive φ₁ {}, brute-force optimum {optimum}",
                s.number(),
                report.joint
            ));
        }
        round.phi1.push(report.joint);
        round.paper_phi1 += report.joint;
        round.paper_opt += optimum;
        let cells = step(round, || {
            tr.span("simulation.grid", op, |_| {
                simulate_grid(
                    cdsf.batch(),
                    &alloc,
                    cdsf.runtime_cases(),
                    &ras.techniques(),
                    cdsf.deadline(),
                    cdsf.sim_params(),
                )
            })
        });
        round.ops += 1;
        let Ok(cells) = cells else {
            round.failed += 1;
            out.error(format!("paper scenario {}: Stage II failed", s.number()));
            continue;
        };
        check_cells(
            &cells,
            cdsf.batch(),
            cdsf.runtime_cases(),
            &alloc,
            &ras,
            PAPER_REPLICATES,
            "paper",
            out,
        );
        round.replicates += (cells.len() * PAPER_REPLICATES) as u64;
        round.chunks.extend(cells.iter().map(|c| c.mean_chunks));
        if s == cdsf_core::Scenario::RobustRobust {
            let result = ScenarioResult {
                scenario: Some(4),
                im_name: im.name().to_string(),
                ras_name: ras.name().to_string(),
                allocation: alloc,
                phi1: report.joint,
                per_app_prob: report.per_app,
                expected_times: report.expected_times,
                cells,
                deadline: cdsf.deadline(),
            };
            let rho = step(round, || cdsf.system_robustness(&result));
            if rho.rho2 != paper::availability_decrease(3) || rho.critical_case != Some(3) {
                out.error(format!(
                    "paper: ρ₂ = {} (case {:?}), case 3's decrease is {}",
                    rho.rho2,
                    rho.critical_case,
                    paper::availability_decrease(3)
                ));
            }
        }
    }
    round.analyses += 1;
}

fn one_round(
    instances: &[Instance],
    seed: u64,
    out: &mut Outcome,
    tr: &mut Tracer,
    op0: u64,
) -> Round {
    let mut round = Round::default();
    for (i, inst) in instances.iter().enumerate() {
        round.steps_ms.push(Vec::new());
        analyse(
            inst,
            seed.wrapping_add(i as u64),
            &mut round,
            out,
            tr,
            op0 + i as u64,
        );
    }
    round.steps_ms.push(Vec::new());
    paper_scenarios(&mut round, out, tr, op0 + instances.len() as u64);
    round
}

/// Runs whole rounds for `seconds`. Set-up — generating the instances
/// and one untimed warm-up round — is timed [`SETUPS`] times.
fn timed(seed: u64, seconds: f64, tr: &mut Tracer, out: &mut Outcome) -> (Vec<Round>, f64, f64) {
    let mut setup = Vec::with_capacity(SETUPS);
    let mut instances = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        instances = gen::instances(seed);
        let warm = one_round(&instances, seed, out, &mut Tracer::default(), 0);
        std::hint::black_box(warm.ops);
        setup.push(t0.elapsed().as_secs_f64());
    }
    let mut rounds = Vec::new();
    let started = Instant::now();
    while rounds.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let op0 = rounds.len() as u64 * 100;
        rounds.push(one_round(&instances, seed, out, tr, op0));
    }
    (rounds, started.elapsed().as_secs_f64(), median(&setup))
}

fn totals(rounds: &[Round], out: &mut Outcome) -> Round {
    let mut all = Round::default();
    for r in rounds {
        all.ops += r.ops;
        all.failed += r.failed;
        all.analyses += r.analyses;
        all.phi1.extend_from_slice(&r.phi1);
        all.replicates += r.replicates;
        all.chunks.extend_from_slice(&r.chunks);
        all.paper_phi1 += r.paper_phi1;
        all.paper_opt += r.paper_opt;
    }
    // Solver reports of one round: they repeat exactly from round to round.
    if let Some(first) = rounds.first() {
        all.lattice_nodes = first.lattice_nodes;
        all.lattice_pruned = first.lattice_pruned;
        all.over_one = first.over_one;
        for r in rounds {
            if (r.lattice_nodes, r.lattice_pruned, r.over_one)
                != (first.lattice_nodes, first.lattice_pruned, first.over_one)
            {
                out.error("lattice counters differ between rounds".to_string());
                break;
            }
        }
    }
    out.attempted = all.ops;
    out.failed = all.failed;
    all
}

/// An untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::default();
    let (rounds, _, setup_s) = timed(seed, seconds, &mut tr, &mut out);
    let all = totals(&rounds, &mut out);
    // Every round runs the same five analyses, each the same steps in the
    // same order. As on the serve workloads each step is taken at its
    // fastest over the rounds, since interference from the host only
    // slows; an analysis' time is the sum of its steps' best times, and
    // the analysis rate follows from those sums.
    let mut best: Vec<f64> = rounds[0]
        .steps_ms
        .iter()
        .enumerate()
        .map(|(k, steps)| {
            (0..steps.len())
                .map(|j| {
                    min(&rounds
                        .iter()
                        .filter_map(|r| r.steps_ms.get(k).and_then(|s| s.get(j)).copied())
                        .collect::<Vec<_>>())
                })
                .sum()
        })
        .collect();
    let total_ms: f64 = best.iter().sum();
    best.sort_by(f64::total_cmp);
    out.metric("ops_per_s", best.len() as f64 * 1e3 / total_ms, "1/s");
    out.metric("latency_p50_ms", quantile(&best, 0.5), "ms");
    out.metric("latency_p99_ms", quantile(&best, 0.99), "ms");
    // Stage I here is exact on the generated instances, so the share of
    // the optimum is taken on the paper instance, where two of the four
    // scenarios map with the naïve equal-share policy.
    out.metric("phi1_vs_optimum", all.paper_phi1 / all.paper_opt, "ratio");
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    out
}

/// A traced run: the same rounds, with the per-layer figures. Serve
/// layers read 0: this workload does not touch them.
pub fn run_traced(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::default();
    let (rounds, elapsed, _) = timed(seed, seconds, &mut tr, &mut out);
    let all = totals(&rounds, &mut out);
    let totals = tr.totals();
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.0);
    let mut lattice_ms = tr.durations_ms("alloc.lattice");
    lattice_ms.sort_by(f64::total_cmp);
    let stage1_s = total("alloc.lattice")
        + total("robustness.evaluate")
        + total("engine.build")
        + total("stage1.paper");
    let (mut cells, mut pulses) = (0u64, 0u64);
    let instances = gen::instances(seed);
    for inst in &instances {
        let (c, p) = cell_counts(&inst.batch, &inst.reference);
        cells += c;
        pulses += p;
    }
    let analyses = all.analyses as f64;
    let mut v = std::collections::HashMap::new();
    v.insert("engine.builds", instances.len() as f64);
    v.insert(
        "engine.build_ms_mean",
        mean(&tr.durations_ms("engine.build")),
    );
    v.insert("pmf.cells_built", cells as f64);
    v.insert("pmf.quotient_pulses", pulses as f64);
    v.insert("alloc.lattice_nodes", all.lattice_nodes as f64);
    v.insert("alloc.lattice_pruned", all.lattice_pruned as f64);
    v.insert("alloc.lattice_ms_p50", quantile(&lattice_ms, 0.5));
    v.insert(
        "alloc.lattice_ms_max",
        lattice_ms.last().copied().unwrap_or(0.0),
    );
    v.insert(
        "robustness.evaluate_us_mean",
        1e3 * mean(&tr.durations_ms("robustness.evaluate")),
    );
    v.insert("ra.prob_over_one", all.over_one as f64);
    v.insert("ra.phi1_mean", mean(&all.phi1));
    v.insert("stage1.ms_per_analysis", 1e3 * stage1_s / analyses);
    v.insert(
        "stage2.ms_per_analysis",
        1e3 * total("simulation.grid") / analyses,
    );
    v.insert(
        "simulation.replicates_per_s",
        ratio(all.replicates as f64, total("simulation.grid")),
    );
    v.insert("dls.chunks_per_run", mean(&all.chunks));
    // Time in the rounds outside every span: checks and bookkeeping.
    let covered: f64 = tr
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .sum();
    v.insert("trace.overhead_share", ratio(elapsed - covered, elapsed));
    crate::traced::emit(&mut out, &v);
    if let Err(e) = tr.write(&trace_path("dual-stage", seed)) {
        out.error(format!("writing the trace: {e}"));
    }
    out
}

/// Engine cells (one per app, type and power-of-two group size) and the
/// pulse pairs their availability quotients combine, from input sizes.
pub fn cell_counts(batch: &Batch, platform: &Platform) -> (u64, u64) {
    let (mut cells, mut pulses) = (0u64, 0u64);
    for app in batch.apps() {
        for (j, t) in platform.types().iter().enumerate() {
            let levels = u64::from(32 - t.count().leading_zeros());
            let exec = app
                .exec_time(cdsf_system::ProcTypeId(j))
                .map_or(0, |p| p.len()) as u64;
            cells += levels;
            pulses += levels * exec * t.availability().len() as u64;
        }
    }
    (cells, pulses)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_round_checks_out_with_only_the_named_fault() {
        let mut out = Outcome::default();
        let round = one_round(&gen::instances(1), 1, &mut out, &mut Tracer::default(), 0);
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        // The apps16 Δ = 6000 solve reports φ₁ a few ulps above 1.
        assert_eq!(round.failed, 1);
        assert_eq!(round.analyses, 5);
    }
}
