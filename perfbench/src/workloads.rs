//! The three workloads. Each sets up its design (timed, several times),
//! then hands the run loop a closure that runs one round of its timed calls
//! and checks the outputs.

use crate::checks::{self, Checks};
use crate::layers::LayerTally;
use crate::sys::{self, Cost};
use dme_dosemap::{DoseGrid, DoseMap, DoseSensitivity};
use dme_liberty::Library;
use dme_netlist::{gen, profiles, Design, DesignProfile};
use dme_placement::Placement;
use dme_qp::{IpmSettings, IpmSolver, SolveStatus};
use dme_sta::{analyze, GeometryAssignment};
use dmeopt::flow::{self, FlowConfig};
use dmeopt::{
    dosepl, DmoptConfig, DoseplConfig, Formulation, FormulationParams, GoldenSummary, Layers,
    Objective, ObsSolverObserver, OptContext,
};

/// AES-65 scale of `aes65-flow` (the full design takes minutes per flow).
const AES_SCALE: f64 = 0.25;
/// Generator seed of the `aes65-flow` design: a fixed AES-65 variant on
/// which the QCP's snapped map breaks the ξ = 0 leakage budget (the named
/// fault counted failed in `aes65_flow`).
const AES_DESIGN_SEED: u64 = 9;
/// JPEG-65 scale of `jpeg65-qp-grids`.
const JPEG_SCALE: f64 = 0.04;
/// Seeded designs of the 30 µm solves of `jpeg65-qp-grids`.
const JPEG_SEEDED_DESIGNS: u64 = 6;
/// Cell count and generator seed of the `dosepl-12k` scaling design
/// (the 12k design of the `perf/dosepl_run_*` benches).
const DOSEPL_CELLS: usize = 12_000;
const DOSEPL_DESIGN_SEED: u64 = 7;
/// Seeded synthetic dose maps per `dosepl-12k` round.
const DOSEPL_MAPS: u64 = 8;
/// dosePl settings of `dosepl-12k`: top-K 75 and no cap on
/// swaps per round (a path takes at most one swap, so `top_k` swaps
/// never bind). A cap makes a round stop at the first few improving
/// swaps, so its work depends on how soon they turn up rather than on
/// the round's size. One round per call; the maps supply the repetition.
fn dosepl_config() -> DoseplConfig {
    let top_k = 75;
    DoseplConfig {
        top_k,
        rounds: 1,
        swaps_per_round: top_k,
        ..DoseplConfig::default()
    }
}
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;

/// Dose bounds, smoothness and snap step of every DMopt problem here
/// (the paper's setup and the `DmoptConfig` defaults), %.
const DOSE_LO: f64 = -5.0;
const DOSE_HI: f64 = 5.0;
const DELTA: f64 = 2.0;
const SNAP: f64 = 0.5;
/// Tolerance on leakage at ξ = 0: the bisection accepts a probe whose
/// surrogate leakage increase is within 1e-3 of the nominal leakage.
const XI_TOL: f64 = 1e-3;

/// Outcome of one round of a workload's timed calls.
#[derive(Debug, Default)]
pub struct Round {
    /// Cost of the timed calls only (checks excluded).
    pub cost: Cost,
    pub attempted: u64,
    pub failed: u64,
    /// Whether every check of the operations that did not fail passed.
    pub checks_ok: bool,
    /// Golden MCT after the round / golden MCT at its entry.
    pub mct_ratio: f64,
    /// Golden leakage after the round / golden leakage at its entry.
    pub leakage_ratio: f64,
    /// Output bits that every round of one run must reproduce.
    pub fingerprint: Vec<u64>,
}

/// Columns of [`SetupTimes::rows`].
pub const GENERATE: usize = 0;
pub const PLACE: usize = 1;
pub const CONTEXT: usize = 2;

/// Per-set-up component times, one row per set-up, and the one-time
/// dme-par pool start, seconds.
#[derive(Debug, Default)]
pub struct SetupTimes {
    pub rows: Vec<[f64; 3]>,
    pub pool_s: f64,
}

impl SetupTimes {
    fn begin(&mut self) {
        if self.rows.is_empty() {
            // The dme-par pool starts lazily on its first parallel call.
            let (_, c) = sys::timed(|| dme_par::run_tasks(dme_par::num_threads(), &|_| {}));
            self.pool_s = c.wall_s;
        }
        self.rows.push([0.0; 3]);
    }

    fn add(&mut self, part: usize, s: f64) {
        self.rows.last_mut().expect("set-up begun")[part] += s;
    }

    /// The pool start plus the median set-up: the pool starts once per
    /// process, so every set-up a user runs pays for it once.
    pub fn setup_s(&self) -> f64 {
        let totals: Vec<f64> = self.rows.iter().map(|r| r.iter().sum()).collect();
        self.pool_s + sys::median(&totals)
    }

    pub fn part_s(&self, part: usize) -> f64 {
        let v: Vec<f64> = self.rows.iter().map(|r| r[part]).collect();
        sys::median(&v)
    }
}

/// A generated and placed design.
struct Built {
    design: Design,
    placement: Placement,
}

fn build(lib: &Library, profile: &DesignProfile, times: &mut SetupTimes) -> Built {
    let (design, c) = sys::timed(|| gen::generate(profile, lib));
    times.add(GENERATE, c.wall_s);
    let (placement, c) = sys::timed(|| dme_placement::place(&design, lib));
    times.add(PLACE, c.wall_s);
    Built { design, placement }
}

fn context<'a>(lib: &'a Library, b: &'a Built, times: &mut SetupTimes) -> OptContext<'a> {
    let (ctx, c) = sys::timed(|| OptContext::new(lib, &b.design, &b.placement));
    times.add(CONTEXT, c.wall_s);
    ctx
}

fn library() -> Library {
    Library::standard(dme_device::Technology::n65())
}

/// Runs `f` with telemetry on when a tally is given, folding what it
/// recorded into the tally afterwards.
fn traced<T>(tally: &mut Option<&mut LayerTally>, f: impl FnOnce() -> T) -> (T, Cost) {
    if tally.is_some() {
        dme_obs::set_enabled(true);
    }
    let (v, cost) = sys::timed(f);
    if let Some(t) = tally {
        dme_obs::set_enabled(false);
        let st = IpmSettings::default();
        t.harvest(st.max_iter, st.cg_max_iter);
    }
    (v, cost)
}

fn ratio(after: &GoldenSummary, before: &GoldenSummary) -> (f64, f64) {
    (
        after.mct_ns / before.mct_ns,
        after.leakage_uw / before.leakage_uw,
    )
}

/// Re-analyzes `placement` under `map` from scratch and checks that it
/// reproduces `golden` bit for bit; returns the analysis time.
fn reanalyze(
    ctx: &OptContext<'_>,
    placement: &Placement,
    map: &DoseMap,
    golden: &GoldenSummary,
    checks: &mut Checks,
) -> f64 {
    let ds = DoseSensitivity::default().0;
    let assignment = dmeopt::dosepl::assignment_for_placement(ctx, placement, map, None, ds);
    let (report, c) = sys::timed(|| analyze(ctx.lib, &ctx.design.netlist, placement, &assignment));
    let fresh = GoldenSummary::from_report(&report);
    checks.require(checks::same_bits(&fresh, golden), || {
        format!("fresh analyze {fresh:?} differs from the reported {golden:?}")
    });
    c.wall_s
}

fn check_placement(ctx: &OptContext<'_>, p: &Placement, checks: &mut Checks) {
    if let Err(e) = checks::placement_legal(ctx.lib, &ctx.design.netlist, p) {
        checks.require(false, || format!("illegal placement: {e}"));
    }
}

/// Snapped map bounds and smoothness.
fn check_snapped_map(map: &DoseMap, checks: &mut Checks) {
    checks.require(
        checks::doses_within(&map.dose_pct, DOSE_LO, DOSE_HI, 1e-9),
        || "snapped dose outside ±5%".into(),
    );
    let step = checks::max_neighbor_step(&map.grid, &map.dose_pct);
    checks.require(step <= DELTA + SNAP + 1e-9, || {
        format!("snapped neighbour step {step} > δ + snap step")
    });
}

/// One round of a workload: runs its timed calls once, traced when a
/// tally is given, and checks the outputs.
pub type RoundFn<'a> = dyn FnMut(Option<&mut LayerTally>) -> Round + 'a;

/// `aes65-flow`: the Figs. 7–8 flow (QCP at ξ = 0 on a 5 µm grid, then
/// dosePl at its defaults) through `dmeopt::flow::run`, on one fixed
/// AES-65 variant: seeded variants move the flow's CPU time by ±30%, so
/// this workload takes nothing from the seed.
///
/// Named fault: on this design the QCP snaps its bisection witness to
/// 0.5% steps without checking the ξ leakage budget again, and the final
/// leakage ends above nominal beyond the ξ = 0 tolerance. The flow then
/// counts as a failed operation on every round; its other checks still
/// decide `correct`.
pub fn aes65_flow<R>(measure: impl FnOnce(SetupTimes, &mut RoundFn<'_>) -> R) -> R {
    let profile = DesignProfile {
        seed: AES_DESIGN_SEED,
        ..profiles::aes65()
    }
    .scaled(AES_SCALE);
    let lib = library();
    let mut times = SetupTimes::default();
    for _ in 1..SETUPS {
        times.begin();
        let b = build(&lib, &profile, &mut times);
        context(&lib, &b, &mut times);
    }
    times.begin();
    let b = build(&lib, &profile, &mut times);
    let ctx = context(&lib, &b, &mut times);
    let cfg = FlowConfig {
        dmopt: DmoptConfig {
            objective: Objective::MinTiming { xi_uw: 0.0 },
            grid_g_um: 5.0,
            ..DmoptConfig::default()
        },
        dosepl: Some(DoseplConfig::default()),
    };
    measure(times, &mut |mut tally| {
        let (res, cost) = traced(&mut tally, || flow::run(&ctx, &cfg));
        let mut round = Round {
            cost,
            attempted: 1,
            checks_ok: true,
            ..Round::default()
        };
        let r = match res {
            Ok(r) => r,
            Err(e) => {
                eprintln!("aes65-flow: flow failed: {e}");
                round.failed = 1;
                return round;
            }
        };
        round.attempted += r.dmopt.probes as u64;
        let nominal = ctx.nominal_summary();
        let dm = r.dmopt.golden_after;
        let fin = r.final_summary();
        let mut checks = Checks::default();
        checks.require(fin.mct_ns < nominal.mct_ns, || {
            format!(
                "final MCT {} not below nominal {}",
                fin.mct_ns, nominal.mct_ns
            )
        });
        checks.require(fin.mct_ns <= dm.mct_ns, || {
            format!(
                "MCT after dosePl {} above MCT after DMopt {}",
                fin.mct_ns, dm.mct_ns
            )
        });
        if fin.leakage_uw > nominal.leakage_uw * (1.0 + XI_TOL) {
            // The named fault: the flow breaks its leakage budget.
            round.failed += 1;
        }
        check_snapped_map(&r.dmopt.poly_map, &mut checks);
        let d = r.dosepl.as_ref().expect("the flow config runs dosePl");
        check_placement(&ctx, &d.placement, &mut checks);
        let s = reanalyze(
            &ctx,
            &d.placement,
            &r.dmopt.poly_map,
            &d.golden_after,
            &mut checks,
        );
        if let Some(t) = tally.as_mut() {
            t.sample("sta.analyze_s", s);
        }
        if !checks.passed() {
            checks.report("aes65-flow");
            round.failed = 1;
            round.checks_ok = false;
        }
        (round.mct_ratio, round.leakage_ratio) = ratio(&fin, &nominal);
        round.fingerprint = vec![
            fin.mct_ns.to_bits(),
            fin.leakage_uw.to_bits(),
            r.dmopt.probes as u64,
        ];
        round
    })
}

/// Builds the leakage-minimising QP at τ = nominal MCT on a `g_um` grid,
/// solves it cold, snaps the map and signs it off; checks the solution
/// when the solve converged. `solve_metric` names the per-layer metric
/// of the solve time; `weight` is the solve's share of the round's QoR
/// ratios.
fn solve_grid(
    ctx: &OptContext<'_>,
    g_um: f64,
    solve_metric: &'static str,
    weight: f64,
    tally: &mut Option<&mut LayerTally>,
    round: &mut Round,
) {
    let p = ctx.placement;
    let grid = DoseGrid::with_granularity(p.die_w_um, p.die_h_um, g_um);
    let tau = ctx.nominal.mct_ns;
    let sensitivity = DoseSensitivity::default();
    let params = FormulationParams {
        layers: Layers::PolyOnly,
        lo_pct: DOSE_LO,
        hi_pct: DOSE_HI,
        delta_pct: DELTA,
        sensitivity,
        tau_ns: tau,
        prune: false,
        tau_ref_ns: tau,
        elastic_weight: None,
        hold_margin_ns: None,
    };
    let ((form, solved, build, solve), cost) = traced(tally, || {
        let (form, build) = sys::timed(|| Formulation::build(ctx, &grid, &params));
        let solver = IpmSolver::new(IpmSettings::default());
        let (sol, solve) = sys::timed(|| {
            if dme_obs::enabled() {
                solver.solve_observed(&form.qp, &mut ObsSolverObserver)
            } else {
                solver.solve(&form.qp)
            }
        });
        let solved = sol.map(|sol| {
            let mut map = DoseMap::from_values(grid, form.poly_doses(&sol.x));
            map.snap_to_step(SNAP);
            let n = ctx.num_instances();
            let mut a = GeometryAssignment::nominal(n);
            for i in 0..n {
                a.dl_nm[i] = sensitivity.0 * map.dose_pct[form.grid_of_inst[i]];
            }
            let (report, signoff) =
                sys::timed(|| analyze(ctx.lib, &ctx.design.netlist, ctx.placement, &a));
            (
                sol,
                map,
                GoldenSummary::from_report(&report),
                signoff.wall_s,
            )
        });
        (form, solved, build.wall_s, solve.wall_s)
    });
    round.cost += cost;
    round.attempted += 1;
    let (sol, map, after, analyze_s) = match solved {
        Ok(s) => s,
        Err(e) => {
            eprintln!("jpeg65-qp-grids: {g_um} µm solve failed: {e}");
            round.failed += 1;
            return;
        }
    };
    let converged = sol.status == SolveStatus::Solved;
    if let Some(t) = tally.as_mut() {
        t.add("formulate.build_s", build);
        t.add(solve_metric, solve);
        t.sample("sta.analyze_s", analyze_s);
        t.add_ratio("qp.converged_ratio", if converged { 1.0 } else { 0.0 }, 1.0);
    }
    let nominal = ctx.nominal_summary();
    let (m, l) = ratio(&after, &nominal);
    round.mct_ratio += weight * m;
    round.leakage_ratio += weight * l;
    round.fingerprint.extend([
        sol.iterations as u64,
        after.mct_ns.to_bits(),
        after.leakage_uw.to_bits(),
    ]);
    if !converged {
        // The named fault: the 5 µm solve stops at the IPM iteration cap.
        round.failed += 1;
        return;
    }
    let mut checks = Checks::default();
    let viol = checks::primal_violation(&form.qp, &sol.x);
    checks.require(viol <= 1e-6, || {
        format!("{g_um} µm: primal violation {viol:e}")
    });
    let raw = form.poly_doses(&sol.x);
    checks.require(checks::doses_within(&raw, DOSE_LO, DOSE_HI, 1e-6), || {
        format!("{g_um} µm: dose outside ±5%")
    });
    let step = checks::max_neighbor_step(&grid, &raw);
    checks.require(step <= DELTA + 1e-6, || {
        format!("{g_um} µm: neighbour step {step} > δ before snapping")
    });
    check_snapped_map(&map, &mut checks);
    // Leakage objective in nW; zero dose is feasible at τ = nominal.
    let leak = form.leakage_objective(&sol.x);
    let leak_tol = 1e-6 * nominal.leakage_uw * 1e3;
    checks.require(leak <= leak_tol, || {
        format!("{g_um} µm: leakage objective {leak} nW > 0 at τ = nominal")
    });
    if !checks.passed() {
        checks.report("jpeg65-qp-grids");
        round.failed += 1;
        round.checks_ok = false;
    }
}

/// `jpeg65-qp-grids`: the Table IV QP rows — cold leakage-minimising QP
/// solves at τ = nominal on 30 µm and 5 µm grids, signed off with a full
/// analysis. The 30 µm solves run on [`JPEG_SEEDED_DESIGNS`] seeded
/// designs; the 5 µm solve, which fails at the IPM iteration cap, runs on
/// the profile's own design so that the failing input does not depend on
/// the seed.
pub fn jpeg65_qp_grids<R>(seed: u64, measure: impl FnOnce(SetupTimes, &mut RoundFn<'_>) -> R) -> R {
    let mut profiles: Vec<DesignProfile> = (0..JPEG_SEEDED_DESIGNS)
        .map(|i| {
            DesignProfile {
                seed: seed.wrapping_mul(JPEG_SEEDED_DESIGNS).wrapping_add(i),
                ..profiles::jpeg65()
            }
            .scaled(JPEG_SCALE)
        })
        .collect();
    profiles.push(profiles::jpeg65().scaled(JPEG_SCALE));
    let lib = library();
    let mut times = SetupTimes::default();
    for _ in 1..SETUPS {
        times.begin();
        for profile in &profiles {
            let b = build(&lib, profile, &mut times);
            context(&lib, &b, &mut times);
        }
    }
    times.begin();
    let built: Vec<Built> = profiles
        .iter()
        .map(|p| build(&lib, p, &mut times))
        .collect();
    let ctxs: Vec<OptContext<'_>> = built.iter().map(|b| context(&lib, b, &mut times)).collect();
    let (ctx5, ctxs30) = ctxs.split_last().expect("the 5 µm design");
    measure(times, &mut |mut tally| {
        let mut round = Round {
            checks_ok: true,
            ..Round::default()
        };
        // Each grid weighs half in the QoR ratios.
        let w30 = 0.5 / ctxs30.len() as f64;
        for ctx in ctxs30 {
            solve_grid(ctx, 30.0, "qp.solve_30um_s", w30, &mut tally, &mut round);
        }
        solve_grid(ctx5, 5.0, "qp.solve_5um_s", 0.5, &mut tally, &mut round);
        round
    })
}

/// Deterministic pseudorandom dose map in [−4%, +4%], built the same way
/// as the `scale_smoke` example's, from `seed`.
fn synthetic_map(die_w_um: f64, die_h_um: f64, granularity_um: f64, seed: u64) -> DoseMap {
    let grid = DoseGrid::with_granularity(die_w_um, die_h_um, granularity_um);
    let vals: Vec<f64> = (0..grid.num_cells())
        .map(|i| {
            let h = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(seed)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            ((h >> 11) as f64 / (1u64 << 53) as f64) * 8.0 - 4.0
        })
        .collect();
    DoseMap::from_values(grid, vals)
}

/// `dosepl-12k`: dosePl alone on the 12k-cell wide/shallow scaling
/// design, one call under each of eight synthetic dose maps drawn from
/// the seed.
pub fn dosepl_12k<R>(seed: u64, measure: impl FnOnce(SetupTimes, &mut RoundFn<'_>) -> R) -> R {
    let profile = profiles::scaling(DOSEPL_CELLS, DOSEPL_DESIGN_SEED);
    let lib = library();
    let mut times = SetupTimes::default();
    for _ in 1..SETUPS {
        times.begin();
        let b = build(&lib, &profile, &mut times);
        context(&lib, &b, &mut times);
    }
    times.begin();
    let b = build(&lib, &profile, &mut times);
    let ctx = context(&lib, &b, &mut times);
    let maps: Vec<DoseMap> = (0..DOSEPL_MAPS)
        .map(|i| {
            let map_seed = seed.wrapping_mul(DOSEPL_MAPS).wrapping_add(i);
            synthetic_map(b.placement.die_w_um, b.placement.die_h_um, 2.0, map_seed)
        })
        .collect();
    let cfg = dosepl_config();
    let ds = DoseSensitivity::default().0;
    measure(times, &mut |mut tally| {
        let mut round = Round {
            checks_ok: true,
            ..Round::default()
        };
        for map in &maps {
            let (r, cost) = traced(&mut tally, || dosepl(&ctx, map, None, ds, &cfg));
            round.cost += cost;
            round.attempted += r.rounds_run as u64;
            let mut checks = Checks::default();
            check_placement(&ctx, &r.placement, &mut checks);
            let s = reanalyze(&ctx, &r.placement, map, &r.golden_after, &mut checks);
            if let Some(t) = tally.as_mut() {
                t.sample("sta.analyze_s", s);
            }
            checks.require(r.golden_after.mct_ns <= r.golden_before.mct_ns, || {
                format!(
                    "MCT after dosePl {} above MCT before {}",
                    r.golden_after.mct_ns, r.golden_before.mct_ns
                )
            });
            if !checks.passed() {
                checks.report("dosepl-12k");
                round.failed += r.rounds_run as u64;
                round.checks_ok = false;
            }
            let (m, l) = ratio(&r.golden_after, &r.golden_before);
            round.mct_ratio += m / maps.len() as f64;
            round.leakage_ratio += l / maps.len() as f64;
            round.fingerprint.extend([
                r.golden_after.mct_ns.to_bits(),
                r.golden_after.leakage_uw.to_bits(),
                r.swaps_accepted as u64,
                r.swap_evals as u64,
            ]);
        }
        round
    })
}
