//! Sweep grids as one job stream on the deterministic pool.
//!
//! A sweep (regret vs. `K`/`M`/`N`, a policy-comparison matrix,
//! replications of each point) is many independent runs. Each caller
//! flattens its grid into one stream of [`CellJob`]s and hands it to
//! [`run_cells`], which fans the jobs out one-per-job over
//! [`crate::parallel::try_parallel_map`]. Every job keeps its own
//! seed-derived RNG stream and runs the serial [`run_policy`], and results
//! return in job order — so the output is bit-for-bit the serial path at
//! any thread count.
//!
//! Only whole runs go to the pool. The single-round equilibrium solves of
//! the game-curve figures (13–18) take microseconds each, less than a
//! pool fan-out costs, so those figures are plain loops.

use crate::policy_spec::PolicySpec;
use crate::runner::{run_policy, RunResult};
use cdt_core::Scenario;
use cdt_types::Result;

/// One schedulable unit of a sweep: run `spec` on `scenario` with `seed`.
#[derive(Debug, Clone, Copy)]
pub struct CellJob<'a> {
    /// The scenario the job runs against.
    pub scenario: &'a Scenario,
    /// The policy to run.
    pub spec: PolicySpec,
    /// The job's own RNG seed (bit-identity contract: one stream per job).
    pub seed: u64,
}

/// Runs a job stream over the deterministic pool at
/// [`crate::parallel::configured_threads`]; results return in job order,
/// bit-for-bit identical to running each job serially.
///
/// # Errors
/// Propagates the first job error in job order.
pub fn run_cells(jobs: &[CellJob<'_>], checkpoints: &[usize]) -> Result<Vec<RunResult>> {
    let threads = crate::parallel::configured_threads();
    crate::parallel::try_parallel_map(jobs, threads, |_, job| {
        run_policy(job.scenario, job.spec, job.seed, checkpoints)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_job_stream_is_fine() {
        assert!(run_cells(&[], &[]).unwrap().is_empty());
    }
}
