//! EXP-T6 (Table 6): the calibrated parameter set — α and β from the
//! temporal sweeps, W from the Figure 7 knee, SPmin/Confmin from the rule
//! stability analysis.

use crate::ctx::{paper, section, Ctx};
use sd_model::Parallelism;
use sd_temporal::calibrate;
use syslogdigest::offline::temporal_series_par;

/// Run the calibration and print the Table 6 analogue.
pub fn run(ctx: &Ctx) {
    section("EXP-T6  (Table 6) — calibrated parameter settings");
    paper("A: alpha 0.05, beta 5, W 120, SPmin 0.0005, Confmin 0.8");
    paper("B: alpha 0.075, beta 5, W 40, SPmin 0.0005, Confmin 0.8");
    println!(
        "  {:<8} {:>7} {:>6} {:>6} {:>8} {:>8}",
        "dataset", "alpha", "beta", "W(s)", "SPmin", "Confmin"
    );
    println!("  (alpha/beta from the Fig 10-11 sweeps; W is the configured Table 6 value,");
    println!("   justified by the Fig 7 growth profile)");
    for (name, b) in ctx.both() {
        let series = temporal_series_par(&b.knowledge, b.data.train(), Parallelism::sequential());
        let cal = calibrate(
            &series,
            &crate::experiments::fig10_exp::ALPHAS,
            &crate::experiments::fig11_exp::BETAS,
            0.03,
        );
        println!(
            "  {:<8} {:>7} {:>6} {:>6} {:>8} {:>8}",
            name,
            cal.alpha,
            cal.beta,
            b.knowledge.window_secs,
            b.offline.mine.sp_min,
            b.offline.mine.conf_min
        );
    }
}
