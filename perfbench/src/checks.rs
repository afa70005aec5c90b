//! Correctness checks the benchmark computes on its own, from the
//! program's outputs and the properties the method guarantees — never by
//! comparing against a stored copy of earlier output.

use dme_dosemap::DoseGrid;
use dme_liberty::Library;
use dme_netlist::{InstId, Netlist};
use dme_placement::Placement;
use dme_qp::QuadProgram;
use dmeopt::GoldenSummary;

/// Collects failed checks of one operation.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Prints every failed check to stderr under `label`.
    pub fn report(&self, label: &str) {
        for f in &self.failures {
            eprintln!("check failed [{label}]: {f}");
        }
    }
}

/// Largest violation of `l ≤ A·x ≤ u` over all rows, each relative to
/// the magnitude of its bound (at least 1), from a sparse row product
/// computed here rather than by the solver.
pub fn primal_violation(qp: &QuadProgram, x: &[f64]) -> f64 {
    let mut worst = 0.0f64;
    for (i, (&l, &u)) in qp.l.iter().zip(&qp.u).enumerate() {
        let ax: f64 = qp.a.row(i).map(|(j, v)| v * x[j]).sum();
        let mut scale = 1.0f64;
        if l.is_finite() {
            scale = scale.max(l.abs());
        }
        if u.is_finite() {
            scale = scale.max(u.abs());
        }
        worst = worst.max((l - ax) / scale).max((ax - u) / scale);
    }
    worst
}

/// Whether every dose lies in `[lo, hi]` up to `tol`.
pub fn doses_within(doses: &[f64], lo: f64, hi: f64, tol: f64) -> bool {
    doses.iter().all(|&d| d >= lo - tol && d <= hi + tol)
}

/// Largest dose difference between horizontally, vertically or
/// diagonally (lower-left to upper-right) adjacent grids: the three
/// neighbour families of the paper's smoothness constraint, Eq. (4).
pub fn max_neighbor_step(grid: &DoseGrid, doses: &[f64]) -> f64 {
    let (cols, rows) = (grid.cols(), grid.rows());
    let at = |c: usize, r: usize| doses[r * cols + c];
    let mut worst = 0.0f64;
    for r in 0..rows {
        for c in 0..cols {
            let d = at(c, r);
            let mut cmp = |c2: usize, r2: usize| worst = worst.max((d - at(c2, r2)).abs());
            if c + 1 < cols {
                cmp(c + 1, r);
            }
            if r + 1 < rows {
                cmp(c, r + 1);
                if c + 1 < cols {
                    cmp(c + 1, r + 1);
                }
            }
        }
    }
    worst
}

/// Legality of a placement: every cell sits on a row inside the die and
/// no two cells of a row overlap.
pub fn placement_legal(lib: &Library, nl: &Netlist, p: &Placement) -> Result<(), String> {
    const EPS: f64 = 1e-6;
    let rows = (p.die_h_um / p.row_h_um).floor() as usize;
    let mut per_row: Vec<Vec<(f64, f64, usize)>> = vec![Vec::new(); rows];
    for i in 0..nl.num_instances() {
        let w = lib.cell(nl.instance(InstId(i as u32)).cell_idx).width_um();
        let (x, y) = (p.x_um[i], p.y_um[i]);
        let r = y / p.row_h_um;
        if (r - r.round()).abs() > EPS || r.round() < 0.0 || r.round() as usize >= rows {
            return Err(format!("cell {i} at y = {y} is not on a row"));
        }
        if x < -EPS || x + w > p.die_w_um + EPS {
            return Err(format!("cell {i} at x = {x} (width {w}) leaves the die"));
        }
        per_row[r.round() as usize].push((x, x + w, i));
    }
    for row in &mut per_row {
        row.sort_by(|a, b| a.0.total_cmp(&b.0));
        for pair in row.windows(2) {
            if pair[0].1 > pair[1].0 + EPS {
                return Err(format!("cells {} and {} overlap", pair[0].2, pair[1].2));
            }
        }
    }
    Ok(())
}

/// Bitwise equality of two golden summaries.
pub fn same_bits(a: &GoldenSummary, b: &GoldenSummary) -> bool {
    a.mct_ns.to_bits() == b.mct_ns.to_bits() && a.leakage_uw.to_bits() == b.leakage_uw.to_bits()
}
