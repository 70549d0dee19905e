//! # iswitch-bench
//!
//! The evaluation harness. `paper` regenerates every table and figure of
//! the iSwitch paper (`cargo run -p iswitch-bench --bin paper -- <artifact>`;
//! [`ARTIFACTS`] is the list, `paper --help` prints it) next to the paper's
//! reported numbers ([`paper`]). Its `baselines/perfgate.json` is the
//! report the 64-cell behaviour gate must reproduce byte for byte (`cargo
//! test -q --test perfgate`, the root package's `tests/perfgate.rs`). How
//! fast the simulator runs on a host is measured by the standalone
//! `benchmark/` package, whose recorded baseline is in `benchmark/README.md`.

#![warn(missing_docs)]

mod artifacts;

pub use artifacts::{Artifact, ALL, ARTIFACTS};

/// Numbers the paper reports, for printing next to measured values.
pub mod paper {
    /// Table 3: sync AR speedup over PS (DQN, A2C, PPO, DDPG).
    pub const SYNC_AR_SPEEDUP: [f64; 4] = [1.97, 1.62, 0.91, 0.90];
    /// Table 3: sync iSW speedup over PS.
    pub const SYNC_ISW_SPEEDUP: [f64; 4] = [3.66, 2.55, 1.72, 1.83];
    /// Table 3: async iSW speedup over async PS.
    // 3.14 here is the paper's reported A2C speedup, not an approximate π.
    #[allow(clippy::approx_constant)]
    pub const ASYNC_ISW_SPEEDUP: [f64; 4] = [3.71, 3.14, 1.92, 1.56];

    /// Table 4: iterations (same across sync strategies).
    pub const SYNC_ITERATIONS: [f64; 4] = [1.40e6, 2.00e5, 8.00e4, 7.50e5];
    /// Table 4: end-to-end hours for PS.
    pub const SYNC_PS_HOURS: [f64; 4] = [31.72, 2.87, 0.39, 8.07];
    /// Table 4: end-to-end hours for AR.
    pub const SYNC_AR_HOURS: [f64; 4] = [16.08, 1.78, 0.42, 9.01];
    /// Table 4: end-to-end hours for iSW.
    pub const SYNC_ISW_HOURS: [f64; 4] = [8.66, 1.12, 0.22, 4.40];
    /// Table 4: per-iteration milliseconds for PS (hours / iterations).
    pub fn sync_ps_per_iter_ms() -> [f64; 4] {
        let mut out = [0.0; 4];
        for i in 0..4 {
            out[i] = SYNC_PS_HOURS[i] * 3.6e6 / SYNC_ITERATIONS[i];
        }
        out
    }

    /// Table 5: async PS iterations.
    pub const ASYNC_PS_ITERATIONS: [f64; 4] = [6.30e6, 1.20e6, 5.40e5, 3.00e6];
    /// Table 5: async iSW iterations.
    pub const ASYNC_ISW_ITERATIONS: [f64; 4] = [3.50e6, 4.00e5, 1.20e5, 1.50e6];
    /// Table 5: async PS per-iteration milliseconds.
    pub const ASYNC_PS_PER_ITER_MS: [f64; 4] = [24.88, 13.13, 3.40, 11.58];
    /// Table 5: async iSW per-iteration milliseconds.
    pub const ASYNC_ISW_PER_ITER_MS: [f64; 4] = [12.07, 12.53, 7.99, 14.89];
    /// Table 5: async PS end-to-end hours.
    pub const ASYNC_PS_HOURS: [f64; 4] = [43.54, 4.38, 0.51, 9.65];
    /// Table 5: async iSW end-to-end hours.
    pub const ASYNC_ISW_HOURS: [f64; 4] = [11.74, 1.39, 0.27, 6.20];

    /// Fig. 4 claim: gradient aggregation occupies this share range.
    pub const AGG_SHARE_RANGE: (f64, f64) = (0.499, 0.832);

    /// §3.5: FPGA resource overheads of the accelerator vs the reference
    /// switch (LUT fraction).
    pub const FPGA_LUT: f64 = 0.186;
    /// Flip-flop overhead fraction.
    pub const FPGA_FF: f64 = 0.173;
    /// Block-RAM overhead fraction.
    pub const FPGA_BRAM: f64 = 0.445;
    /// DSP slices used.
    pub const FPGA_DSP: u32 = 17;
}

/// Prints the standard header for a regenerated artifact.
pub(crate) fn banner(artifact: &str, description: &str) {
    println!("================================================================");
    println!("{artifact} — {description}");
    println!("(reproduction of Li et al., ISCA 2019; shapes, not absolute");
    println!(" numbers, are the comparison target — see EXPERIMENTS.md)");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_per_iteration_derivation() {
        let ms = paper::sync_ps_per_iter_ms();
        // 31.72 h / 1.4 M iterations = 81.56 ms.
        assert!((ms[0] - 81.56).abs() < 0.1, "{}", ms[0]);
        assert!((ms[2] - 17.55).abs() < 0.1, "{}", ms[2]);
    }

    #[test]
    fn speedup_tables_are_consistent_with_hours() {
        // The paper rounds hours to two decimals, so derived speedups can
        // drift a few percent from the reported ones.
        for i in 0..4 {
            let ar = paper::SYNC_PS_HOURS[i] / paper::SYNC_AR_HOURS[i];
            assert!((ar - paper::SYNC_AR_SPEEDUP[i]).abs() < 0.08, "AR {i}");
            let isw = paper::SYNC_PS_HOURS[i] / paper::SYNC_ISW_HOURS[i];
            assert!((isw - paper::SYNC_ISW_SPEEDUP[i]).abs() < 0.08, "iSW {i}");
        }
    }
}
