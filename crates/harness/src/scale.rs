//! Experiment scale selection.

/// How much compute an experiment run spends. All scales regenerate every
/// table row; they differ in training budget and model width.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Minimal budget for CI smoke runs (~seconds per table).
    Smoke,
    /// The default: small but meaningful training (~minutes per table).
    Fast,
    /// Larger budget for tighter numbers.
    Full,
}

impl Scale {
    /// Reads `MSD_SCALE` from the environment (`smoke`/`fast`/`full`),
    /// defaulting to [`Scale::Fast`]. Unknown values fall back to `Fast`
    /// with a warning on stderr.
    // Reads MSD_SCALE.
    #[allow(clippy::disallowed_methods)]
    pub fn from_env() -> Self {
        match std::env::var("MSD_SCALE").as_deref() {
            Ok("smoke") => Scale::Smoke,
            Ok("full") => Scale::Full,
            Ok("fast") | Err(_) => Scale::Fast,
            Ok(other) => {
                eprintln!("warning: unknown MSD_SCALE '{other}', using fast");
                Scale::Fast
            }
        }
    }

    /// Training epochs.
    pub fn epochs(&self) -> usize {
        match self {
            Scale::Smoke => 2,
            Scale::Fast => 5,
            Scale::Full => 12,
        }
    }

    /// Cap on training windows per experiment.
    pub fn max_train_windows(&self) -> usize {
        match self {
            Scale::Smoke => 64,
            Scale::Fast => 256,
            Scale::Full => 1024,
        }
    }

    /// Cap on evaluation windows per experiment.
    pub fn max_eval_windows(&self) -> usize {
        match self {
            Scale::Smoke => 64,
            Scale::Fast => 192,
            Scale::Full => 512,
        }
    }

    /// Model representation width.
    pub fn d_model(&self) -> usize {
        match self {
            Scale::Smoke => 8,
            Scale::Fast => 16,
            Scale::Full => 32,
        }
    }

    /// Mini-batch size.
    pub fn batch_size(&self) -> usize {
        match self {
            Scale::Smoke => 16,
            Scale::Fast => 32,
            Scale::Full => 32,
        }
    }

    /// Short name for report footers.
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Fast => "fast",
            Scale::Full => "full",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_increase_with_scale() {
        assert!(Scale::Smoke.epochs() < Scale::Fast.epochs());
        assert!(Scale::Fast.epochs() < Scale::Full.epochs());
        assert!(Scale::Smoke.max_train_windows() < Scale::Full.max_train_windows());
        assert!(Scale::Smoke.d_model() <= Scale::Full.d_model());
    }

    #[test]
    fn names_round_trip() {
        assert_eq!(Scale::Smoke.name(), "smoke");
        assert_eq!(Scale::Fast.name(), "fast");
        assert_eq!(Scale::Full.name(), "full");
    }
}
