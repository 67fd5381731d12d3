//! Output checks computed apart from the program: Stage-I probabilities
//! from the paper's formulas, allocation validity, and a brute-force
//! optimum for small instances.

use cdsf_system::{Batch, Platform, ProcTypeId};

/// Tolerance on a per-app or joint φ₁ against the benchmark's own value.
pub const PHI_TOL: f64 = 1e-9;

/// `Pr(T ≤ Δ)` for one application on `procs` processors of `proc_type`,
/// from the inputs alone: every execution-time pulse `x` is rescaled by
/// paper Eq. (2), `x·(s + (1 − s)/n)`, divided by every availability
/// pulse `a`, and the mass of the quotients at or below `deadline` is
/// summed.
pub fn app_prob(
    batch: &Batch,
    platform: &Platform,
    app: usize,
    proc_type: usize,
    procs: u32,
    deadline: f64,
) -> Option<f64> {
    let a = batch.apps().get(app)?;
    let exec = a.exec_time(ProcTypeId(proc_type)).ok()?;
    let avail = platform.types().get(proc_type)?.availability();
    let s = a.serial_fraction();
    let factor = s + (1.0 - s) / f64::from(procs);
    let mut p = 0.0;
    for x in exec.pulses() {
        let t = x.value * factor;
        for y in avail.pulses() {
            if t / y.value <= deadline {
                p += x.prob * y.prob;
            }
        }
    }
    Some(p)
}

/// A Stage-I answer as the checks see it.
#[derive(Debug, Clone)]
pub struct Answer<'a> {
    pub groups: &'a [(usize, u32)],
    pub per_app: &'a [f64],
    pub joint: f64,
}

/// One group per app, each a power of two of one existing type, and no
/// type over capacity.
pub fn check_allocation(
    groups: &[(usize, u32)],
    batch: &Batch,
    platform: &Platform,
) -> Result<(), String> {
    if groups.len() != batch.len() {
        return Err(format!("{} groups for {} apps", groups.len(), batch.len()));
    }
    let mut used = vec![0u64; platform.num_types()];
    for (i, &(t, n)) in groups.iter().enumerate() {
        if t >= platform.num_types() {
            return Err(format!("app {i} on unknown type {t}"));
        }
        if n == 0 || !n.is_power_of_two() {
            return Err(format!("app {i} has a group of {n}, not a power of two"));
        }
        used[t] += u64::from(n);
    }
    for (t, &u) in used.iter().enumerate() {
        let cap = u64::from(platform.types()[t].count());
        if u > cap {
            return Err(format!("type {t} holds {u} procs of {cap}"));
        }
    }
    Ok(())
}

/// Checks validity, every per-app φ₁ against [`app_prob`], and the joint
/// against the product of the per-app values. Returns how many per-app
/// values lie above 1.
pub fn check_answer(
    ans: &Answer<'_>,
    batch: &Batch,
    platform: &Platform,
    deadline: f64,
) -> Result<u64, String> {
    check_allocation(ans.groups, batch, platform)?;
    if ans.per_app.len() != batch.len() {
        return Err(format!(
            "{} per-app values for {} apps",
            ans.per_app.len(),
            batch.len()
        ));
    }
    let mut over_one = 0;
    let mut product = 1.0;
    for (i, (&(t, n), &got)) in ans.groups.iter().zip(ans.per_app).enumerate() {
        let want = app_prob(batch, platform, i, t, n, deadline)
            .ok_or_else(|| format!("app {i} has no inputs for type {t}"))?;
        if !((got - want).abs() <= PHI_TOL) || got < 0.0 {
            return Err(format!("app {i}: φ₁ {got} but the inputs give {want}"));
        }
        over_one += u64::from(got > 1.0);
        product *= got;
    }
    if !((ans.joint - product).abs() <= 1e-12 * product.abs()) {
        return Err(format!(
            "joint φ₁ {} is not the product {product} of the per-app values",
            ans.joint
        ));
    }
    Ok(over_one)
}

/// The largest joint φ₁ over every feasible allocation, by depth-first
/// enumeration with a product bound (sound because it bounds by each
/// remaining app's best option, not by 1).
pub fn brute_force_phi1(batch: &Batch, platform: &Platform, deadline: f64) -> f64 {
    let options: Vec<Vec<(usize, u32, f64)>> = (0..batch.len())
        .map(|i| {
            let mut opts = Vec::new();
            for (t, ty) in platform.types().iter().enumerate() {
                let mut n = 1u32;
                while n <= ty.count() {
                    if let Some(p) = app_prob(batch, platform, i, t, n, deadline) {
                        opts.push((t, n, p));
                    }
                    n *= 2;
                }
            }
            opts.sort_by(|a, b| b.2.total_cmp(&a.2));
            opts
        })
        .collect();
    // suffix[i] = product of the best option of apps i.. (an upper bound).
    let mut suffix = vec![1.0; batch.len() + 1];
    for i in (0..batch.len()).rev() {
        suffix[i] = suffix[i + 1] * options[i].first().map_or(0.0, |o| o.2);
    }
    let mut free: Vec<u32> = platform.types().iter().map(|t| t.count()).collect();
    let mut best = 0.0;
    dfs(0, 1.0, &options, &suffix, &mut free, &mut best);
    best
}

fn dfs(
    i: usize,
    acc: f64,
    options: &[Vec<(usize, u32, f64)>],
    suffix: &[f64],
    free: &mut [u32],
    best: &mut f64,
) {
    if i == options.len() {
        if acc > *best {
            *best = acc;
        }
        return;
    }
    if acc * suffix[i] <= *best {
        return;
    }
    for &(t, n, p) in &options[i] {
        if free[t] >= n {
            free[t] -= n;
            dfs(i + 1, acc * p, options, suffix, free, best);
            free[t] += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdsf_serve::WorkloadSpec;

    fn small() -> (Batch, Platform) {
        WorkloadSpec::simple(4, 2, 6, 77)
            .expand()
            .expect("valid spec")
    }

    fn exact(batch: &Batch, platform: &Platform, groups: &[(usize, u32)], d: f64) -> Vec<f64> {
        groups
            .iter()
            .enumerate()
            .map(|(i, &(t, n))| app_prob(batch, platform, i, t, n, d).unwrap())
            .collect()
    }

    #[test]
    fn own_probabilities_match_the_engine() {
        let (batch, platform) = small();
        let engine = cdsf_ra::Phi1Engine::build(&batch, &platform).unwrap();
        for i in 0..batch.len() {
            for a in engine.options(i) {
                for d in [1_000.0, 2_800.0, 9_000.0] {
                    let want = engine.prob(i, a.proc_type, a.procs, d).unwrap();
                    let got = app_prob(&batch, &platform, i, a.proc_type.0, a.procs, d).unwrap();
                    assert!((got - want).abs() <= PHI_TOL, "{got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn a_correct_answer_passes() {
        let (batch, platform) = small();
        let groups = vec![(0, 1), (0, 2), (1, 1), (1, 2)];
        let per_app = exact(&batch, &platform, &groups, 2_800.0);
        let joint = per_app.iter().product();
        let ans = Answer {
            groups: &groups,
            per_app: &per_app,
            joint,
        };
        assert!(check_answer(&ans, &batch, &platform, 2_800.0).is_ok());
    }

    #[test]
    fn corrupted_answers_are_rejected() {
        let (batch, platform) = small();
        let d = 2_800.0;
        let groups = vec![(0, 1), (0, 2), (1, 1), (1, 2)];
        let per_app = exact(&batch, &platform, &groups, d);
        let joint: f64 = per_app.iter().product();

        let mut off = per_app.clone();
        off[1] += 1e-6;
        let bad = Answer {
            groups: &groups,
            per_app: &off,
            joint,
        };
        assert!(
            check_answer(&bad, &batch, &platform, d).is_err(),
            "per-app φ₁ off by 1e-6"
        );

        let bad = Answer {
            groups: &groups,
            per_app: &per_app,
            joint: joint + 1e-6,
        };
        assert!(
            check_answer(&bad, &batch, &platform, d).is_err(),
            "joint φ₁ off by 1e-6"
        );

        let cap = platform.types()[0].count();
        let over = vec![(0, (cap + 1).next_power_of_two()), (0, 2), (1, 1), (1, 2)];
        assert!(
            check_allocation(&over, &batch, &platform).is_err(),
            "over capacity"
        );

        let odd = vec![(0, 3), (0, 2), (1, 1), (1, 2)];
        assert!(
            check_allocation(&odd, &batch, &platform).is_err(),
            "not a power of two"
        );
    }

    #[test]
    fn brute_force_matches_the_exhaustive_allocator() {
        let (batch, platform) = small();
        for d in [1_500.0, 2_800.0, 6_000.0] {
            let alloc = cdsf_core::ImPolicy::Robust
                .allocate(&batch, &platform, d)
                .unwrap();
            let report = cdsf_ra::robustness::evaluate(&batch, &platform, &alloc, d).unwrap();
            let best = brute_force_phi1(&batch, &platform, d);
            assert!(
                (best - report.joint).abs() <= PHI_TOL,
                "Δ={d}: {best} vs {}",
                report.joint
            );
        }
    }
}
