//! Run sizing, selected with the `CHAMELEON_SCALE` environment variable.

use std::fmt;

/// Run sizing (`CHAMELEON_SCALE=quick` or `full`; default `full`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunScale {
    /// ~4x fewer instructions; minutes-level total runtime.
    Quick,
    /// The default experiment sizing.
    Full,
}

/// An unrecognised `CHAMELEON_SCALE` value.
#[derive(Clone, PartialEq, Eq)]
pub struct ScaleError {
    value: String,
}

impl fmt::Display for ScaleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CHAMELEON_SCALE={:?} is not recognised (accepted: \"quick\", \"full\")",
            self.value
        )
    }
}

/// The message itself, so that a `main` returning this error prints it.
impl fmt::Debug for ScaleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl std::error::Error for ScaleError {}

impl RunScale {
    /// Reads the scale from the environment: `Full` when
    /// `CHAMELEON_SCALE` is unset.
    ///
    /// # Errors
    ///
    /// Any value but `quick` or `full` (a typo like `ful`, or a size
    /// this enum does not have, like `tiny`) is an error rather than a
    /// run at a size the caller did not ask for.
    pub fn from_env() -> Result<Self, ScaleError> {
        match std::env::var("CHAMELEON_SCALE") {
            Ok(v) if v == "quick" => Ok(RunScale::Quick),
            Ok(v) if v == "full" => Ok(RunScale::Full),
            Ok(value) => Err(ScaleError { value }),
            Err(_) => Ok(RunScale::Full),
        }
    }

    /// Instructions per core for a measured run.
    pub fn instructions(self) -> u64 {
        match self {
            RunScale::Quick => 250_000,
            RunScale::Full => 1_000_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_recognises_all_values() {
        // Exercise every branch in one test: env mutation is not
        // thread-safe across tests, so keep it serialised here.
        std::env::set_var("CHAMELEON_SCALE", "quick");
        assert_eq!(RunScale::from_env(), Ok(RunScale::Quick));
        std::env::set_var("CHAMELEON_SCALE", "full");
        assert_eq!(RunScale::from_env(), Ok(RunScale::Full));
        // A typo or an unknown size is an error naming the accepted
        // spellings.
        for bad in ["ful", "tiny", ""] {
            std::env::set_var("CHAMELEON_SCALE", bad);
            let err = RunScale::from_env().expect_err(bad).to_string();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
            assert!(err.contains("\"quick\", \"full\""), "{err}");
        }
        std::env::remove_var("CHAMELEON_SCALE");
        assert_eq!(RunScale::from_env(), Ok(RunScale::Full));
        assert!(RunScale::Quick.instructions() < RunScale::Full.instructions());
    }
}
