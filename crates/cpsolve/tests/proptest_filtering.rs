//! Property tests for the filtering the engine runs: the incremental
//! timetable, the phase barrier and the lateness reification must never
//! prune a placement that an exhaustive, propagator-free enumeration
//! proves feasible. (The optimum the solver proves is pinned separately
//! against the brute-force oracle in `proptest_solver`.)

use cpsolve::model::{Model, ModelBuilder, SlotKind, TaskRef};
use cpsolve::props::Engine;
use cpsolve::state::Domains;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Tiny {
    /// (map_cap, reduce_cap) per resource.
    resources: Vec<(u32, u32)>,
    /// (release, map durations, reduce durations) per job.
    jobs: Vec<(i64, Vec<i64>, Vec<i64>)>,
    horizon: i64,
}

/// Small enough for exhaustive placement enumeration (≤ 4 tasks, short
/// horizon) but varied enough to exercise overload, barrier lifting and
/// the resource side of the `alternative` inside timetable filtering.
fn tiny() -> impl Strategy<Value = Tiny> {
    let res = prop::collection::vec((1u32..=2, 1u32..=2), 1..=2);
    let main_job = (
        0i64..=2,
        prop::collection::vec(1i64..=4, 1..=2),
        prop::collection::vec(1i64..=3, 0..=1),
    );
    let extra = (any::<bool>(), 0i64..=2, 1i64..=4);
    (res, main_job, extra, 6i64..=9).prop_map(|(resources, (rel, maps, reds), extra, horizon)| {
        let mut jobs = vec![(rel, maps, reds)];
        let (with_extra, rel2, d) = extra;
        if with_extra {
            jobs.push((rel2, vec![d], vec![]));
        }
        Tiny {
            resources,
            jobs,
            horizon,
        }
    })
}

fn build(i: &Tiny) -> Model {
    let mut b = ModelBuilder::new();
    for &(mc, rc) in &i.resources {
        b.add_resource(mc, rc);
    }
    for (rel, maps, reds) in &i.jobs {
        // Deadline is irrelevant here: with no objective cut the deadline
        // never prunes, so make it loose.
        let j = b.add_job(*rel, rel + 1000);
        for &d in maps {
            b.add_task(j, SlotKind::Map, d, 1);
        }
        for &d in reds {
            b.add_task(j, SlotKind::Reduce, d, 1);
        }
    }
    b.set_horizon(i.horizon);
    b.build().expect("well-formed")
}

/// Exhaustively enumerate every complete `(resource, start)` placement that
/// satisfies release times, the map→reduce barrier, the horizon and the
/// slot capacities — sharing no code with the propagators — and record each
/// task's feasible starts and resources.
fn enumerate_feasible(model: &Model) -> (Vec<Vec<i64>>, Vec<Vec<bool>>) {
    let n = model.n_tasks();
    let nr = model.n_resources();
    let horizon = model.horizon;
    let max_end = (horizon + model.tasks.iter().map(|t| t.dur).max().unwrap_or(0)) as usize + 1;

    // Maps first, then reduces, so the barrier floor is known when a
    // reduce is placed.
    let mut order: Vec<TaskRef> = Vec::with_capacity(n);
    for j in 0..model.n_jobs() {
        order.extend(model.maps_of[j].iter().copied());
    }
    for j in 0..model.n_jobs() {
        order.extend(model.reduces_of[j].iter().copied());
    }

    let mut usage = vec![[vec![0i64; max_end], vec![0i64; max_end]]; nr];
    let mut starts = vec![0i64; n];
    let mut feas_starts: Vec<Vec<i64>> = vec![Vec::new(); n];
    let mut feas_res: Vec<Vec<bool>> = vec![vec![false; nr]; n];

    fn kind_idx(k: SlotKind) -> usize {
        match k {
            SlotKind::Map => 0,
            SlotKind::Reduce => 1,
        }
    }

    /// Returns the number of complete feasible placements in this subtree.
    #[allow(clippy::too_many_arguments)]
    fn rec(
        model: &Model,
        order: &[TaskRef],
        pos: usize,
        usage: &mut [[Vec<i64>; 2]],
        starts: &mut [i64],
        feas_starts: &mut [Vec<i64>],
        feas_res: &mut [Vec<bool>],
    ) -> u64 {
        if pos == order.len() {
            for &t in order {
                let ti = t.idx();
                if !feas_starts[ti].contains(&starts[ti]) {
                    feas_starts[ti].push(starts[ti]);
                }
            }
            return 1;
        }
        let t = order[pos];
        let spec = &model.tasks[t.idx()];
        let job = &model.jobs[spec.job.idx()];
        let mut floor = job.release;
        if spec.kind == SlotKind::Reduce {
            for &m in &model.maps_of[spec.job.idx()] {
                floor = floor.max(starts[m.idx()] + model.tasks[m.idx()].dur);
            }
        }
        let k = kind_idx(spec.kind);
        let mut found = 0u64;
        for r in 0..model.n_resources() {
            let cap = model.resources[r].cap(spec.kind) as i64;
            if cap == 0 {
                continue;
            }
            for s in floor..=model.horizon {
                let range = s as usize..(s + spec.dur) as usize;
                if range
                    .clone()
                    .any(|u| usage[r][k][u] + spec.req as i64 > cap)
                {
                    continue;
                }
                for u in range.clone() {
                    usage[r][k][u] += spec.req as i64;
                }
                starts[t.idx()] = s;
                let below = rec(model, order, pos + 1, usage, starts, feas_starts, feas_res);
                if below > 0 {
                    feas_res[t.idx()][r] = true;
                    found += below;
                }
                for u in range {
                    usage[r][k][u] -= spec.req as i64;
                }
            }
        }
        found
    }

    rec(
        model,
        &order,
        0,
        &mut usage,
        &mut starts,
        &mut feas_starts,
        &mut feas_res,
    );
    (feas_starts, feas_res)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Root propagation with the default engine keeps every start and
    /// every resource that participates in at least one complete feasible
    /// placement: the filters only remove provably infeasible values.
    #[test]
    fn strong_filters_never_prune_feasible_placements(i in tiny()) {
        let model = build(&i);
        let (feas_starts, feas_res) = enumerate_feasible(&model);

        let mut dom = Domains::new(&model);
        let mut eng = Engine::new(&model);
        let ok = eng.propagate_all(&model, &mut dom).is_ok();

        let any_feasible = feas_starts.iter().any(|f| !f.is_empty());
        if !any_feasible {
            // Nothing to protect; a root conflict is allowed (and good).
            return Ok(());
        }
        prop_assert!(ok, "root conflict on a feasible instance");
        for t in 0..model.n_tasks() {
            let tr = TaskRef(t as u32);
            for &s in &feas_starts[t] {
                prop_assert!(
                    dom.lb(tr) <= s && s <= dom.ub(tr),
                    "task {t}: feasible start {s} pruned to [{}, {}]",
                    dom.lb(tr), dom.ub(tr)
                );
            }
            for (r, &feas) in feas_res[t].iter().enumerate() {
                if feas {
                    prop_assert!(
                        dom.mask(tr) & (1u128 << r) != 0,
                        "task {t}: feasible resource {r} removed"
                    );
                }
            }
        }
    }
}
