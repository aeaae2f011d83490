//! Grid expansion: (applications × architectures × capacity ratios) →
//! a flat, deterministically ordered job list.

use chameleon::{Architecture, ScaledParams};

use crate::job::Job;

/// An experiment grid. Expansion order is ratios-major, then apps, then
/// archs — matching the row-major `apps × archs` layout the figure
/// runners index, repeated per ratio.
#[derive(Debug, Clone)]
pub struct GridSpec {
    /// Base parameters every cell starts from.
    pub params: ScaledParams,
    /// Applications (rows).
    pub apps: Vec<String>,
    /// Architectures (columns).
    pub archs: Vec<Architecture>,
    /// Stacked:off-chip ratios to sweep; empty means "keep the base
    /// params' ratio".
    pub ratios: Vec<u64>,
    /// Base seed shared by every cell (each cell still mixes in its job
    /// hash).
    pub seed: u64,
}

impl GridSpec {
    /// A grid over the base params' own ratio.
    pub fn new(params: ScaledParams, apps: Vec<String>, archs: Vec<Architecture>) -> Self {
        Self {
            params,
            apps,
            archs,
            ratios: Vec::new(),
            seed: 42,
        }
    }

    /// Number of cells the grid expands to.
    pub fn cells(&self) -> usize {
        self.apps.len() * self.archs.len() * self.ratios.len().max(1)
    }

    /// Expands the grid to jobs.
    ///
    /// # Errors
    ///
    /// Returns `bad ratio …` for a ratio the base params cannot split
    /// (see [`ScaledParams::with_ratio`]).
    pub fn jobs(&self) -> Result<Vec<Job>, String> {
        let param_sets: Vec<ScaledParams> = if self.ratios.is_empty() {
            vec![self.params.clone()]
        } else {
            self.ratios
                .iter()
                .map(|&r| {
                    self.params
                        .clone()
                        .with_ratio(r)
                        .map_err(|e| format!("bad ratio {r}: {e}"))
                })
                .collect::<Result<_, _>>()?
        };
        let mut jobs = Vec::with_capacity(self.cells());
        for params in &param_sets {
            for app in &self.apps {
                for &arch in &self.archs {
                    jobs.push(Job::new(arch, app.clone(), params, self.seed));
                }
            }
        }
        Ok(jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_row_major_per_ratio() {
        let mut g = GridSpec::new(
            ScaledParams::tiny(),
            vec!["mcf".to_owned(), "stream".to_owned()],
            vec![Architecture::Pom, Architecture::ChameleonOpt],
        );
        g.ratios = vec![3, 7];
        assert_eq!(g.cells(), 8);
        let jobs = g.jobs().unwrap();
        assert_eq!(jobs.len(), 8);
        // First block: ratio 3, mcf row.
        assert_eq!(jobs[0].app, "mcf");
        assert_eq!(jobs[0].arch, Architecture::Pom);
        assert_eq!(jobs[1].arch, Architecture::ChameleonOpt);
        assert_eq!(jobs[2].app, "stream");
        // Second block starts at index 4 with the other ratio.
        assert_ne!(
            jobs[0].params.hma.stacked.capacity,
            jobs[4].params.hma.stacked.capacity
        );
    }

    #[test]
    fn empty_ratio_list_keeps_base_params() {
        let g = GridSpec::new(
            ScaledParams::tiny(),
            vec!["mcf".to_owned()],
            vec![Architecture::Pom],
        );
        let jobs = g.jobs().unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].params, ScaledParams::tiny());
    }

    #[test]
    fn unsplittable_ratios_are_errors_not_panics() {
        let mut g = GridSpec::new(
            ScaledParams::laptop(),
            vec!["mcf".to_owned()],
            vec![Architecture::Pom],
        );
        // 384 MiB splits into 4 parts but not 5; 1:0 has no off-chip memory.
        for bad in [4, 0] {
            g.ratios = vec![3, bad];
            let err = g.jobs().unwrap_err();
            assert!(err.starts_with(&format!("bad ratio {bad}:")), "{err}");
        }
    }
}
