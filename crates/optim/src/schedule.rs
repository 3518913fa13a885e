/// Learning-rate schedule evaluated per epoch.
///
/// The paper's recipes (§IV):
///
/// * CIFAR-10: lr 0.1, ÷10 at epoch 100 and 150 of 200 —
///   [`LrSchedule::paper_cifar10`] generalises this to "÷10 at 50 % and
///   75 % of the run" for scaled epoch budgets.
/// * CIFAR-100: the same plus a 2-epoch warm-up at lr 0.01 — not
///   implemented: nothing here trains on a CIFAR-100 analogue.
#[derive(Debug, Clone, PartialEq)]
pub enum LrSchedule {
    /// Fixed learning rate.
    Constant(f32),
    /// `base` multiplied by `gamma` at each milestone epoch.
    StepDecay {
        /// Initial learning rate.
        base: f32,
        /// Epochs at which the rate is multiplied by `gamma`.
        milestones: Vec<usize>,
        /// Decay multiplier (paper: 0.1).
        gamma: f32,
    },
}

impl LrSchedule {
    /// The paper's CIFAR-10 recipe scaled to `total_epochs`: lr 0.1, ÷10 at
    /// 50 % and 75 % of the run.
    pub fn paper_cifar10(total_epochs: usize) -> Self {
        LrSchedule::StepDecay {
            base: 0.1,
            milestones: vec![total_epochs / 2, total_epochs * 3 / 4],
            gamma: 0.1,
        }
    }

    /// The learning rate for `epoch` (0-based).
    pub fn lr_at(&self, epoch: usize) -> f32 {
        match self {
            LrSchedule::Constant(lr) => *lr,
            LrSchedule::StepDecay {
                base,
                milestones,
                gamma,
            } => {
                let decays = milestones.iter().filter(|&&m| epoch >= m).count();
                base * gamma.powi(decays as i32)
            }
        }
    }
}

impl Default for LrSchedule {
    fn default() -> Self {
        LrSchedule::Constant(0.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let s = LrSchedule::Constant(0.05);
        assert_eq!(s.lr_at(0), 0.05);
        assert_eq!(s.lr_at(1000), 0.05);
    }

    #[test]
    fn step_decay_boundaries() {
        let s = LrSchedule::paper_cifar10(200);
        assert_eq!(s.lr_at(0), 0.1);
        assert_eq!(s.lr_at(99), 0.1);
        assert!((s.lr_at(100) - 0.01).abs() < 1e-9);
        assert!((s.lr_at(149) - 0.01).abs() < 1e-9);
        assert!((s.lr_at(150) - 0.001).abs() < 1e-9);
        assert!((s.lr_at(199) - 0.001).abs() < 1e-9);
    }

    #[test]
    fn scaled_milestones() {
        let s = LrSchedule::paper_cifar10(40);
        assert_eq!(s.lr_at(19), 0.1);
        assert!((s.lr_at(20) - 0.01).abs() < 1e-9);
        assert!((s.lr_at(30) - 0.001).abs() < 1e-9);
    }

    #[test]
    fn default_matches_paper_base_lr() {
        assert_eq!(LrSchedule::default().lr_at(0), 0.1);
    }
}
