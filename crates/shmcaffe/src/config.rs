//! Platform configuration: ShmCaffe's two extra hyper-parameters plus
//! simulation knobs.

use shmcaffe_simnet::jitter::JitterModel;
use shmcaffe_simnet::SimDuration;

use crate::termination::TerminationPolicy;

/// Configuration of a ShmCaffe run.
///
/// "ShmCaffe supports all hyper-parameters supported by Caffe and
/// additionally supports two hyper-parameters: `update_interval` and
/// `moving_rate`" (paper §III-A). The solver hyper-parameters live in
/// [`shmcaffe_dnn::SolverConfig`]; this struct carries the distributed ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShmCaffeConfig {
    /// Moving averaging rate α used in the elastic updates (eqs. 3–7).
    /// The paper's experiments use 0.2.
    pub moving_rate: f32,
    /// How frequently (in iterations) to exchange with the global buffer.
    /// The paper's experiments use 1.
    pub update_interval: usize,
    /// Local training iterations per worker (before termination alignment).
    pub max_iters: usize,
    /// Termination-alignment criterion (§III-E).
    pub termination: TerminationPolicy,
    /// Iterations between progress-board publishes/checks.
    pub progress_every: usize,
    /// Evaluate (convergence runs) every this many iterations on rank 0;
    /// `0` disables evaluation.
    pub eval_every: usize,
    /// Compute-time jitter model. Every platform ignores it: the trainer
    /// factory's own `JitterModel` governs compute jitter (stragglers).
    pub jitter: JitterModel,
    /// Base RNG seed; every worker derives its own stream from it.
    pub seed: u64,
    /// Iterations between center-variable checkpoints written by the
    /// master into the replicated checkpoint segment (`0` disables
    /// checkpointing). A checkpoint is what a crashed worker rejoins from
    /// and what survives a memory-server failover.
    pub checkpoint_every: usize,
    /// How long after its crash a dead worker attempts to rejoin from the
    /// latest checkpoint (`None` = crashed workers stay dead). Rejoin
    /// also requires `checkpoint_every > 0`.
    pub rejoin_delay: Option<SimDuration>,
    /// Run the exchange as a pipelined chunk stream: the `W_g` range-reads
    /// ride a striped window — four reader connections per memory server,
    /// issued as far ahead of the mixer as the previous exchange's pushes
    /// allow (a chunk's own T.A5 gate blocks; a later chunk's gate is taken
    /// only if already open), opened by the Hybrid-SGD root as soon as its
    /// gradients are computed — and each finished ΔW chunk is pushed (range
    /// write + range accumulate) immediately, overlapping with the
    /// remaining mixing and with compute. Off = the paper's monolithic
    /// read→mix→push exchange: one chunk, one SMB stream, `W_g` read after
    /// the update. Both produce bit-identical weights: the chunk grid
    /// ([`crate::seasgd::EXCHANGE_CHUNKS`] tiles of the vector, cut at the
    /// lane bounds) depends on the parameter length, the lane count and
    /// this flag alone, and the mixing is elementwise.
    pub pipelined_exchange: bool,
}

impl Default for ShmCaffeConfig {
    fn default() -> Self {
        ShmCaffeConfig {
            moving_rate: 0.2,
            update_interval: 1,
            max_iters: 100,
            termination: TerminationPolicy::FixedIterations,
            progress_every: 10,
            eval_every: 0,
            jitter: JitterModel::hpc_default(),
            seed: 42,
            checkpoint_every: 0,
            rejoin_delay: None,
            pipelined_exchange: true,
        }
    }
}

impl ShmCaffeConfig {
    /// Validates invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.moving_rate) {
            return Err(format!("moving_rate {} outside [0, 1]", self.moving_rate));
        }
        if self.update_interval == 0 {
            return Err("update_interval must be at least 1".to_string());
        }
        if self.max_iters == 0 {
            return Err("max_iters must be at least 1".to_string());
        }
        if self.progress_every == 0 {
            return Err("progress_every must be at least 1".to_string());
        }
        if self.rejoin_delay.is_some() && self.checkpoint_every == 0 {
            return Err("rejoin_delay requires checkpoint_every > 0".to_string());
        }
        Ok(())
    }
}

/// Baseline-platform calibration (see DESIGN.md §1 and EXPERIMENTS.md for
/// provenance; BVLC Caffe's host-overhead constants live in
/// `platforms/ssgd.rs`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineConfig {
    /// Effective MPI point-to-point bandwidth as a fraction of the RDMA
    /// wire rate. Models the "additional memory copying and protocol
    /// processing in the existing communication methods" that ShmCaffe
    /// eliminates (paper §V). 0.25 ≈ 1.75 GB/s effective on the 7 GB/s
    /// FDR HCA, consistent with Caffe-MPI v1.0's per-layer blocking
    /// send/recv exchanges. It was fitted to the paper's 2.8× end-to-end
    /// and 5.3× communication-time gaps at 16 GPUs and misses both
    /// (2.33× and 6.05× in `BENCH_paper.json`).
    pub mpi_efficiency: f64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig { mpi_efficiency: 0.25 }
    }
}

impl BaselineConfig {
    /// The modelled wire size of an MPI transfer of `bytes` logical bytes:
    /// the copy and protocol overhead inflates it by `1 / mpi_efficiency`.
    /// Every MPI baseline (Caffe-MPI, MPICaffe, Downpour) prices its
    /// messages through this one rule.
    pub fn mpi_wire_bytes(&self, bytes: u64) -> u64 {
        (bytes as f64 / self.mpi_efficiency) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let c = ShmCaffeConfig::default();
        assert_eq!(c.moving_rate, 0.2);
        assert_eq!(c.update_interval, 1);
        assert!(c.pipelined_exchange, "chunked pipeline is the default path");
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_values() {
        let base = ShmCaffeConfig::default();
        assert!(ShmCaffeConfig { moving_rate: 1.5, ..base }.validate().is_err());
        assert!(ShmCaffeConfig { update_interval: 0, ..base }.validate().is_err());
        assert!(ShmCaffeConfig { max_iters: 0, ..base }.validate().is_err());
        assert!(ShmCaffeConfig { progress_every: 0, ..base }.validate().is_err());
        assert!(ShmCaffeConfig {
            rejoin_delay: Some(SimDuration::from_millis(1)),
            checkpoint_every: 0,
            ..base
        }
        .validate()
        .is_err());
    }
}
