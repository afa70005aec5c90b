//! Per-layer metrics of the traced run: the benchmark's own timers
//! around the public calls into each module, plus the spans, counters,
//! histograms and records the program writes to its `dme-obs` registry.

use std::collections::BTreeMap;

/// Every per-layer metric, with its unit, in report order. A metric of a
/// layer that a workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.generate_s", "s"),
    ("placement.place_s", "s"),
    ("context.new_s", "s"),
    ("sta.analyze_s", "s"),
    ("sta.analyze_calls", "count"),
    ("sta.gates_evaluated", "count"),
    ("sta.retime_calls", "count"),
    ("sta.retime_cone_gates_p50", "count"),
    ("sta.retime_undo_replays", "count"),
    ("formulate.build_s", "s"),
    ("qp.solve_30um_s", "s"),
    ("qp.solve_5um_s", "s"),
    ("qp.symbolic_s", "s"),
    ("qp.symbolic_discarded_s", "s"),
    ("qp.predictor_s", "s"),
    ("qp.corrector_s", "s"),
    ("qp.ipm_iterations", "count"),
    ("qp.cg_solves", "count"),
    ("qp.cg_iterations", "count"),
    ("qp.backend_direct", "count"),
    ("qp.backend_cg", "count"),
    ("qp.cg_within_cap_ratio", "ratio"),
    ("qp.converged_ratio", "ratio"),
    ("dmopt.optimize_s", "s"),
    ("dmopt.signoff_s", "s"),
    ("dmopt.probes", "count"),
    ("dmopt.warm_start_hits", "count"),
    ("dmopt.feasible_probe_ratio", "ratio"),
    ("dosepl.run_s", "s"),
    ("dosepl.enumerate_s", "s"),
    ("dosepl.filter_s", "s"),
    ("dosepl.round_signoff_s", "s"),
    ("dosepl.swap_evals", "count"),
    ("dosepl.swaps_attempted", "count"),
    ("dosepl.accept_ratio", "ratio"),
    ("obs.tracing_overhead_ratio", "ratio"),
];

/// Span path suffixes summed (seconds) into a per-layer metric.
const SPANS: &[(&str, &[&str])] = &[
    ("formulate.build_s", &["dmopt/formulate"]),
    ("qp.symbolic_s", &["ipm/symbolic"]),
    ("qp.predictor_s", &["ipm/predictor"]),
    ("qp.corrector_s", &["ipm/corrector"]),
    ("dmopt.optimize_s", &["dmopt"]),
    ("dmopt.signoff_s", &["dmopt/snap_signoff"]),
    ("dosepl.run_s", &["dosepl"]),
    (
        "dosepl.enumerate_s",
        &["dosepl/round/enumerate_paths", "dosepl/round/enumerate"],
    ),
    ("dosepl.filter_s", &["dosepl/round/filter"]),
    ("dosepl.round_signoff_s", &["round_signoff"]),
];

/// Counters copied into a per-layer metric.
const COUNTERS: &[(&str, &str)] = &[
    ("sta.analyze_calls", "sta/analyze_calls"),
    ("sta.gates_evaluated", "sta/gates_evaluated"),
    ("sta.retime_calls", "sta/retime_calls"),
    ("sta.retime_undo_replays", "sta/retime_undo_replays"),
    ("qp.ipm_iterations", "qp/ipm_iterations"),
    ("qp.cg_solves", "qp/cg_solves"),
    ("qp.cg_iterations", "qp/cg_iterations"),
    ("qp.backend_direct", "qp/backend_direct"),
    ("qp.backend_cg", "qp/backend_cg"),
    ("dmopt.probes", "dmopt/qp_probes"),
    ("dmopt.warm_start_hits", "dmopt/warm_start_hits"),
    ("dosepl.swap_evals", "dosepl/swap_evals"),
    ("dosepl.swaps_attempted", "dosepl/swaps_attempted"),
];

/// Sums over the traced rounds, turned into per-round values at the end.
#[derive(Debug, Default)]
pub struct LayerTally {
    sums: BTreeMap<&'static str, f64>,
    /// Numerator and denominator of each ratio metric.
    ratios: BTreeMap<&'static str, (f64, f64)>,
    /// Samples reported as their median instead of a per-round sum.
    samples: BTreeMap<&'static str, Vec<f64>>,
}

/// Sum of the total time of every span whose path is one of `suffixes`
/// or ends in `/suffix`, seconds.
fn span_seconds(nodes: &[dme_obs::ProfileNode], suffixes: &[&str]) -> f64 {
    nodes
        .iter()
        .filter(|n| {
            suffixes.iter().any(|s| {
                n.path == *s
                    || (n.path.ends_with(s) && n.path[..n.path.len() - s.len()].ends_with('/'))
            })
        })
        .map(|n| n.stats.total_ns as f64 * 1e-9)
        .sum()
}

impl LayerTally {
    /// Adds `v` to the per-round sum of `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_insert(0.0) += v;
    }

    /// Adds to the numerator and denominator of the ratio `name`.
    pub fn add_ratio(&mut self, name: &'static str, num: f64, den: f64) {
        let e = self.ratios.entry(name).or_insert((0.0, 0.0));
        e.0 += num;
        e.1 += den;
    }

    /// Adds a sample reported as the median of all samples of `name`.
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// Folds everything the registry collected since the last harvest
    /// into the tally, then clears the registry. `ipm_cap` is the IPM
    /// iteration cap and `cg_cap` the CG iteration cap of the solves.
    pub fn harvest(&mut self, ipm_cap: usize, cg_cap: usize) {
        let nodes = dme_obs::profile_snapshot();
        for (name, suffixes) in SPANS {
            self.add(name, span_seconds(&nodes, suffixes));
        }
        for (name, counter) in COUNTERS {
            self.add(name, dme_obs::counter_value(counter) as f64);
        }
        // Symbolic analysis whose factor no Newton solve used: the
        // solves of this unit all took the CG backend.
        if dme_obs::counter_value("qp/backend_direct") == 0
            && dme_obs::counter_value("qp/backend_cg") > 0
        {
            self.add(
                "qp.symbolic_discarded_s",
                span_seconds(&nodes, &["ipm/symbolic"]),
            );
        }
        if let Some(h) = dme_obs::histogram_snapshot("sta/retime_cone_gates") {
            if h.count > 0 {
                self.sample("sta.retime_cone_gates_p50", h.p50() as f64);
            }
        }
        if let Some(series) = dme_obs::record_series("ipm_iter") {
            for row in &series.rows {
                for (key, v) in row {
                    if (*key == "cg_pred" || *key == "cg_corr") && *v > 0.0 {
                        let within = if (*v as usize) < cg_cap { 1.0 } else { 0.0 };
                        self.add_ratio("qp.cg_within_cap_ratio", within, 1.0);
                    }
                }
            }
        }
        if let Some(series) = dme_obs::record_series("qcp_probe") {
            for row in &series.rows {
                let field = |k: &str| row.iter().find(|(n, _)| *n == k).map_or(0.0, |f| f.1);
                self.add_ratio("dmopt.feasible_probe_ratio", field("feasible"), 1.0);
                let converged = (field("iterations") as usize) < ipm_cap;
                self.add_ratio("qp.converged_ratio", if converged { 1.0 } else { 0.0 }, 1.0);
            }
        }
        self.add_ratio(
            "dosepl.accept_ratio",
            dme_obs::counter_value("dosepl/swaps_accepted") as f64,
            dme_obs::counter_value("dosepl/swap_evals") as f64,
        );
        dme_obs::reset();
    }

    /// Every [`PER_LAYER`] metric: sums per traced round, ratios, and
    /// medians of samples. Undefined ratios and absent layers read 0.
    pub fn finish(&self, traced_rounds: usize) -> Vec<(&'static str, f64, &'static str)> {
        let rounds = traced_rounds.max(1) as f64;
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = if let Some(&(num, den)) = self.ratios.get(name) {
                    if den > 0.0 {
                        num / den
                    } else {
                        0.0
                    }
                } else if let Some(s) = self.samples.get(name) {
                    crate::sys::median(s)
                } else {
                    self.sums.get(name).map_or(0.0, |s| s / rounds)
                };
                (name, v, unit)
            })
            .collect()
    }
}
