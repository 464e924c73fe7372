//! Runnable distributed training platforms.
//!
//! | Platform | Paper role | Algorithm |
//! |---|---|---|
//! | [`ShmCaffeA`] | the contribution (async) | SEASGD over the SMB server |
//! | [`ShmCaffeH`] | the contribution (hybrid) | intra-node SSGD + inter-node SEASGD |
//! | [`CaffeSsgd`] | baseline | BVLC Caffe 1.0: single-process multi-GPU NCCL SSGD |
//! | [`CaffeMpi`] | baseline | Inspur Caffe-MPI: star-topology gradient gather / weight scatter over MPI |
//! | [`MpiCaffe`] | baseline | the authors' MPI_Allreduce SSGD port |
//!
//! Every platform consumes a [`crate::trainer::TrainerFactory`] and returns
//! a [`crate::report::TrainingReport`]. Each keeps its own per-rank loop —
//! they differ in where the update sits and what counts as communication —
//! over one shared set of books (the private `fleet` module).

mod caffe;
mod caffe_mpi;
mod downpour;
pub(crate) mod fleet;
mod mpicaffe;
mod shmcaffe_a;
mod shmcaffe_h;

pub use caffe::{CaffeSsgd, SsgdConfig};
pub use caffe_mpi::CaffeMpi;
pub use downpour::{DownpourAsgd, DownpourConfig};
pub use mpicaffe::MpiCaffe;
pub use shmcaffe_a::ShmCaffeA;
pub use shmcaffe_h::ShmCaffeH;

use shmcaffe_simnet::{SimTime, Simulation};

use crate::PlatformError;

/// Runs a simulation, converting any worker panic (or deadlock) into a
/// platform error.
pub(crate) fn run_sim(sim: Simulation) -> Result<SimTime, PlatformError> {
    sim.run_result().map_err(PlatformError::WorkerFailed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_sim_converts_panics() {
        let mut sim = Simulation::new();
        sim.spawn("bad", |_| panic!("kaboom"));
        let err = run_sim(sim).unwrap_err();
        match err {
            PlatformError::WorkerFailed(msg) => assert!(msg.contains("kaboom")),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn run_sim_passes_time_through() {
        let mut sim = Simulation::new();
        sim.spawn("ok", |ctx| ctx.sleep(shmcaffe_simnet::SimDuration::from_millis(3)));
        assert_eq!(run_sim(sim).unwrap().as_millis_f64(), 3.0);
    }
}
