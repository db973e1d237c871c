//! EXP-F10 (Figure 10): temporal-grouping compression ratio vs. the EWMA
//! weight α at β = 2. Expected shape: the ratio worsens (rises) for
//! larger α; the best values sit at small α (paper: 0.05 for A, 0.075
//! for B).

use crate::ctx::{paper, section, Ctx};
use sd_model::Parallelism;
use sd_temporal::sweep_alpha;
use syslogdigest::offline::temporal_series_par;

/// The α grid swept.
pub const ALPHAS: [f64; 10] = [0.0, 0.025, 0.05, 0.075, 0.1, 0.15, 0.2, 0.3, 0.45, 0.6];

/// Run the Figure 10 sweep.
pub fn run(ctx: &Ctx) {
    section("EXP-F10  (Figure 10) — temporal compression ratio vs alpha (beta = 2)");
    paper("larger alpha -> higher (worse) ratio; minima at alpha = 0.05 (A) / 0.075 (B)");
    for (name, b) in ctx.both() {
        let series = temporal_series_par(&b.knowledge, b.data.train(), Parallelism::sequential());
        let swept = sweep_alpha(&series, &ALPHAS, 2.0);
        print!("  dataset {name}: ");
        for (a, r) in &swept {
            print!("a={a}:{r:.4}  ");
        }
        let best = swept.iter().min_by(|x, y| x.1.total_cmp(&y.1)).unwrap();
        println!("\n    best alpha = {} (ratio {:.4})", best.0, best.1);
    }
}
