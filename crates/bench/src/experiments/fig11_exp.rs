//! EXP-F11 (Figure 11): temporal-grouping compression ratio vs. the split
//! threshold β, at the per-dataset default α. Expected shape: the ratio
//! falls as β grows and the improvement flattens (the paper settles on
//! β = 5 for both datasets).

use crate::ctx::{paper, section, Ctx};
use sd_model::Parallelism;
use sd_temporal::sweep_beta;
use syslogdigest::offline::temporal_series_par;

/// The β grid swept.
pub const BETAS: [f64; 6] = [2.0, 3.0, 4.0, 5.0, 6.0, 7.0];

/// Run the Figure 11 sweep.
pub fn run(ctx: &Ctx) {
    section("EXP-F11  (Figure 11) — temporal compression ratio vs beta (alpha at defaults)");
    paper("ratio decreases with beta and the improvement diminishes; beta = 5 chosen");
    for (name, b) in ctx.both() {
        let series = temporal_series_par(&b.knowledge, b.data.train(), Parallelism::sequential());
        let swept = sweep_beta(&series, &BETAS, b.knowledge.temporal.alpha);
        print!("  dataset {name} (alpha={}): ", b.knowledge.temporal.alpha);
        for (bv, r) in &swept {
            print!("b={bv}:{r:.4}  ");
        }
        // Knee: improvement below 3% relative.
        let mut chosen = swept.last().unwrap().0;
        for w in swept.windows(2) {
            if w[0].1 > 0.0 && (w[0].1 - w[1].1) / w[0].1 < 0.03 {
                chosen = w[0].0;
                break;
            }
        }
        println!("\n    knee (3% improvement): beta = {chosen}");
    }
}
