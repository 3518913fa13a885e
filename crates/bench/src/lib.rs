//! # apt-bench
//!
//! Experiment harness for the APT reproduction. One binary per paper
//! figure/table (`fig1`…`fig5`, `table1`, `ablations`), all sharing the
//! scale/seed CLI and the [`ExpParams`] presets defined here, plus five
//! gate binaries — `memory`, `kernels`, `serving`, `distributed`,
//! `fault-campaign` — whose `--smoke` mode is a CI acceptance gate and
//! whose full run writes a `BENCH_*.json` record. The gate binaries share
//! one harness: the [`CountingAlloc`] they measure the heap with, the
//! [`schema`] of each record and its [`json_doc`] layout (rows rendered by
//! [`apt_metrics::Table`], like every CSV and aligned print in this crate),
//! the [`write_output`] rule that keeps a smoke run off the committed
//! records, the numbered [`Gates`], and [`paired_rounds`] / [`median`]
//! timing. Figure and gate binaries only: the training command is `apt
//! train`, in the root package.
//!
//! Every figure binary accepts these flags and refuses any other with
//! exit code 2:
//!
//! ```text
//! --scale tiny|small|paper   (default: tiny)
//! --seed  <u64>              (default: 42)
//! ```
//!
//! `tiny` finishes in seconds-to-minutes on one CPU core and is what CI
//! runs; `small` is the recorded configuration of EXPERIMENTS.md; `paper`
//! replicates the paper's exact shapes (ResNet-20 at full width, 32×32,
//! 200 epochs) and is provided for completeness — it is *correct* but slow
//! on a laptop-class CPU.
//!
//! Binaries print the paper's rows/series as an aligned table and write CSV
//! into `results/`.

#![deny(missing_docs)]
#![deny(unsafe_code)]

// `unsafe impl GlobalAlloc` cannot be written otherwise; its SAFETY comment
// is in the module.
#[allow(unsafe_code)]
mod alloc;
mod harness;

pub use alloc::CountingAlloc;
pub use harness::{
    arg_value, available_parallelism, bit_identical, json_doc, median, output_path, paired_rounds,
    schema, smoke_flag, table, write_output, Gates,
};

use apt_core::TrainConfig;
use apt_data::{SynthCifar, SynthCifarConfig};
use apt_optim::LrSchedule;

/// Experiment scale preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Seconds-scale smoke configuration (CI default).
    #[default]
    Tiny,
    /// The recorded configuration (minutes per arm on one core).
    Small,
    /// The paper's exact shapes (slow on CPU; provided for completeness).
    Paper,
}

impl Scale {
    /// Parses `tiny|small|paper` (case-insensitive).
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Paper => "paper",
        };
        f.write_str(s)
    }
}

/// The workload parameters derived from a [`Scale`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExpParams {
    /// Scale this was derived from.
    pub scale: Scale,
    /// Image side length.
    pub img_size: usize,
    /// Training examples per class (10-class task).
    pub train_per_class: usize,
    /// Test examples per class.
    pub test_per_class: usize,
    /// Epochs per arm.
    pub epochs: usize,
    /// Channel width multiplier for the backbones.
    pub width_mult: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Instance-noise level of the synthetic task (higher = harder; tuned
    /// per scale so accuracies land in a paper-like band rather than
    /// saturating).
    pub noise_std: f32,
    /// Master seed.
    pub seed: u64,
}

impl ExpParams {
    /// Builds the parameters for a scale/seed pair.
    fn for_scale(scale: Scale, seed: u64) -> ExpParams {
        match scale {
            Scale::Tiny => ExpParams {
                scale,
                img_size: 8,
                train_per_class: 16,
                test_per_class: 8,
                epochs: 8,
                width_mult: 0.25,
                batch_size: 16,
                noise_std: 0.35,
                seed,
            },
            Scale::Small => ExpParams {
                scale,
                img_size: 12,
                train_per_class: 80,
                test_per_class: 20,
                epochs: 60,
                width_mult: 0.25,
                batch_size: 32,
                noise_std: 0.55,
                seed,
            },
            Scale::Paper => ExpParams {
                scale,
                img_size: 32,
                train_per_class: 5000,
                test_per_class: 1000,
                epochs: 200,
                width_mult: 1.0,
                batch_size: 128,
                noise_std: 0.35,
                seed,
            },
        }
    }

    /// Generates the 10-class SynthCifar pair for these parameters.
    ///
    /// # Errors
    ///
    /// Propagates dataset-generation errors.
    pub fn synth10(&self) -> apt_data::Result<SynthCifar> {
        SynthCifar::generate(&SynthCifarConfig {
            num_classes: 10,
            train_per_class: self.train_per_class,
            test_per_class: self.test_per_class,
            img_size: self.img_size,
            noise_std: self.noise_std,
            seed: self.seed,
            ..Default::default()
        })
    }

    /// Generates the 100-class analogue (fewer examples per class, as in
    /// CIFAR-100).
    ///
    /// # Errors
    ///
    /// Propagates dataset-generation errors.
    pub fn synth100(&self) -> apt_data::Result<SynthCifar> {
        SynthCifar::generate(&SynthCifarConfig {
            num_classes: 100,
            train_per_class: (self.train_per_class / 4).max(4),
            test_per_class: (self.test_per_class / 4).max(2),
            img_size: self.img_size,
            noise_std: self.noise_std,
            seed: self.seed ^ 0x100,
            ..Default::default()
        })
    }

    /// The shared training configuration (paper recipe scaled to the epoch
    /// budget): SGD momentum 0.9, weight decay 1e-4, lr 0.1 ÷10 at
    /// 50 %/75 %, pad-and-crop augmentation.
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            batch_size: self.batch_size,
            schedule: LrSchedule::paper_cifar10(self.epochs),
            seed: self.seed,
            ..Default::default()
        }
    }
}

/// Parses a figure binary's arguments, program name excluded: `--scale`
/// and `--seed`, each followed by its value. Any other argument, or a flag
/// with no value, is an error that names it.
fn parse_args<S: AsRef<str>>(args: &[S]) -> Result<ExpParams, String> {
    let (mut scale, mut seed) = (Scale::default(), 42);
    let mut args = args.iter().map(AsRef::as_ref);
    while let Some(flag) = args.next() {
        if flag != "--scale" && flag != "--seed" {
            return Err(format!("unknown flag `{flag}`"));
        }
        let text = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if flag == "--scale" {
            scale = Scale::parse(text)
                .ok_or_else(|| format!("invalid --scale `{text}` (tiny|small|paper)"))?;
        } else {
            seed = text
                .parse()
                .map_err(|_| format!("invalid --seed `{text}` (a u64)"))?;
        }
    }
    Ok(ExpParams::for_scale(scale, seed))
}

/// Parses `--scale`/`--seed` from the process arguments. A malformed
/// command line prints one line naming the fault, then the usage, and
/// exits 2, as `apt` does.
pub fn parse_cli() -> ExpParams {
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    let bin = std::path::Path::new(&bin).file_name().unwrap_or_default();
    let bin = bin.to_string_lossy();
    parse_args(&args.collect::<Vec<_>>()).unwrap_or_else(|e| {
        eprintln!("{bin}: {e}\n\nusage: {bin} [--scale tiny|small|paper] [--seed U64]");
        std::process::exit(2)
    })
}

/// Formats a ratio as a percentage string with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("SMALL"), Some(Scale::Small));
        assert_eq!(Scale::parse("Paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
        assert_eq!(Scale::Tiny.to_string(), "tiny");
    }

    #[test]
    fn params_scale_monotonically() {
        let t = ExpParams::for_scale(Scale::Tiny, 1);
        let s = ExpParams::for_scale(Scale::Small, 1);
        let p = ExpParams::for_scale(Scale::Paper, 1);
        assert!(t.epochs < s.epochs && s.epochs < p.epochs);
        assert!(t.img_size < s.img_size && s.img_size <= p.img_size);
        assert_eq!(p.img_size, 32);
        assert_eq!(p.epochs, 200);
        assert_eq!(p.batch_size, 128);
    }

    #[test]
    fn tiny_dataset_generates() {
        let params = ExpParams::for_scale(Scale::Tiny, 3);
        let d10 = params.synth10().unwrap();
        assert_eq!(d10.train.num_classes(), 10);
        let d100 = params.synth100().unwrap();
        assert_eq!(d100.train.num_classes(), 100);
        assert!(d100.train.len() >= 400);
    }

    #[test]
    fn train_config_uses_paper_recipe() {
        let params = ExpParams::for_scale(Scale::Tiny, 3);
        let cfg = params.train_config();
        assert_eq!(cfg.epochs, params.epochs);
        assert_eq!(cfg.schedule.lr_at(0), 0.1);
        assert_eq!(cfg.sgd.momentum, 0.9);
    }

    #[test]
    fn figure_flags_parse_and_anything_else_is_refused() {
        let params = parse_args(&["--scale", "tiny", "--seed", "3"]).unwrap();
        assert_eq!(params, ExpParams::for_scale(Scale::Tiny, 3));
        assert_eq!(
            parse_args::<&str>(&[]).unwrap(),
            ExpParams::for_scale(Scale::Tiny, 42)
        );
        for (args, fault) in [
            (&["--sede", "3"][..], "unknown flag `--sede`"),
            (
                &["--scale", "tiny", "--threads", "4"],
                "unknown flag `--threads`",
            ),
            (&["--seed"], "--seed needs a value"),
            (&["--scale", "huge"], "invalid --scale `huge`"),
            (&["--seed", "-1"], "invalid --seed `-1`"),
        ] {
            let e = parse_args(args).unwrap_err();
            assert!(e.starts_with(fault), "{args:?}: {e}");
        }
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.9234), "92.3%");
    }
}
