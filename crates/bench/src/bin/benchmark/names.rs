//! The names this benchmark defines: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root lists the same names; a test keeps the two in step.

/// One metric definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: share of the parent's median by which the metric
    /// may worsen before a change is a regression. `0.0` on per-layer
    /// metrics, which carry no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef { name, unit, better: "lower", bound }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: "lower", bound: 0.0 }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: "higher", bound: 0.0 }
}

/// End-to-end metrics, defined (and never zero) on every workload.
/// `virt_*` is simulated time and repeats exactly for a seed; the others
/// are host measurements.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("virt_iter_ms", "ms", 0.08),
    e2e("virt_run_s", "s", 0.08),
    e2e("host_s", "s", 0.25),
    e2e("setup_s", "s", 0.25),
    e2e("peak_rss_mb", "MB", 0.10),
];

/// Per-layer metrics of the traced pass. Workload-attributed ones read
/// zero on a workload that never enters the layer (that zero is the
/// bypass evidence); layer probes are direct calls and read the same on
/// every workload.
pub const PER_LAYER: [MetricDef; 93] = [
    // Workload-scoped end-to-end quantities that are not defined on every
    // workload and therefore cannot be gated.
    higher("e2e.virt_samples_per_s", "samples/s"),
    higher("e2e.virt_smb_gbps", "GB/s"),
    lower("e2e.virt_time_to_target_s", "s"),
    lower("e2e.final_loss", "nats"),
    lower("e2e.failed_share", "ratio"),
    // shmcaffe: TrainingReport.
    lower("shmcaffe.comp_ms", "ms"),
    lower("shmcaffe.comm_ms", "ms"),
    lower("shmcaffe.comm_share", "ratio"),
    // seasgd: WorkerReport phases and counters; exchange host cost probe.
    lower("seasgd.wait_ms", "ms"),
    lower("seasgd.read_ms", "ms"),
    lower("seasgd.mix_ms", "ms"),
    lower("seasgd.dropped_updates", "count"),
    lower("seasgd.partition_buffered", "count"),
    lower("seasgd.exchange_host_us", "us"),
    // hybrid: per-rank WorkerReport.
    lower("hybrid.root_comm_ms", "ms"),
    lower("hybrid.member_comm_ms", "ms"),
    // trainer: Instrumented spans (host time per call).
    lower("trainer.compute_host_ms", "ms"),
    lower("trainer.update_host_ms", "ms"),
    lower("trainer.weights_io_host_us", "us"),
    // dnn: TracedLayer / TracedDataset spans (host ms per training step).
    lower("dnn.fwd_host_ms.stem_conv", "ms"),
    lower("dnn.fwd_host_ms.stem_lrn", "ms"),
    lower("dnn.fwd_host_ms.stem_pool", "ms"),
    lower("dnn.fwd_host_ms.inception_3a", "ms"),
    lower("dnn.fwd_host_ms.inception_3b", "ms"),
    lower("dnn.fwd_host_ms.pool4", "ms"),
    lower("dnn.fwd_host_ms.classifier", "ms"),
    lower("dnn.bwd_host_ms.stem_conv", "ms"),
    lower("dnn.bwd_host_ms.stem_lrn", "ms"),
    lower("dnn.bwd_host_ms.stem_pool", "ms"),
    lower("dnn.bwd_host_ms.inception_3a", "ms"),
    lower("dnn.bwd_host_ms.inception_3b", "ms"),
    lower("dnn.bwd_host_ms.pool4", "ms"),
    lower("dnn.bwd_host_ms.classifier", "ms"),
    lower("dnn.data_batch_host_ms", "ms"),
    lower("dnn.solver_update_host_ms", "ms"),
    // tensor: direct kernel calls, one thread, proxy-net shapes.
    higher("tensor.gemm_gflops", "GFLOP/s"),
    higher("tensor.conv_fwd_gflops", "GFLOP/s"),
    higher("tensor.conv_bwd_gflops", "GFLOP/s"),
    higher("tensor.axpy_gbps", "GB/s"),
    higher("tensor.elastic_mix_gbps", "GB/s"),
    lower("tensor.workspace_growths", "count"),
    // smb: single-client op probes on a CRC-paged server, 1 MiB buffers.
    lower("smb.read_virt_us", "us"),
    lower("smb.read_host_us", "us"),
    lower("smb.write_virt_us", "us"),
    lower("smb.write_host_us", "us"),
    lower("smb.accumulate_virt_us", "us"),
    lower("smb.accumulate_host_us", "us"),
    lower("smb.read_range_virt_us", "us"),
    lower("smb.read_range_host_us", "us"),
    lower("smb.write_range_virt_us", "us"),
    lower("smb.write_range_host_us", "us"),
    lower("smb.accumulate_range_virt_us", "us"),
    lower("smb.accumulate_range_host_us", "us"),
    lower("smb.checkpoint_write_virt_us", "us"),
    lower("smb.checkpoint_write_host_us", "us"),
    lower("smb.read_unpaged_host_us", "us"),
    lower("smb.write_unpaged_host_us", "us"),
    lower("smb.accumulate_unpaged_host_us", "us"),
    higher("smb.crc32c_gbps", "GB/s"),
    lower("smb.verify_region_host_us", "us"),
    lower("smb.scrub_pass_host_us", "us"),
    lower("smb.replicate_virt_us", "us"),
    lower("smb.replicate_host_us", "us"),
    lower("smb.server_memory_mb", "MB"),
    // smb: fault counters from the run's report.
    lower("smb.faults", "count"),
    lower("smb.retries", "count"),
    lower("smb.recovery_ms_max", "ms"),
    lower("smb.corruptions_detected", "count"),
    lower("smb.corruptions_repaired", "count"),
    lower("smb.corruptions_unrepairable", "count"),
    lower("smb.fenced_rejections", "count"),
    // rdma: direct verbs at 1 MiB.
    lower("rdma.read_wire_virt_us", "us"),
    lower("rdma.write_wire_virt_us", "us"),
    lower("rdma.read_host_us", "us"),
    lower("rdma.write_host_us", "us"),
    lower("rdma.register_host_us", "us"),
    // simnet: link counters of the replayed run, then engine micro-costs.
    lower("simnet.hca_tx_busy_share", "ratio"),
    lower("simnet.hca_rx_busy_share", "ratio"),
    lower("simnet.pcie_busy_share", "ratio"),
    lower("simnet.wire_bytes_per_iter", "B"),
    lower("simnet.transfers_per_iter", "count"),
    lower("simnet.host_us_per_switch.p2", "us"),
    lower("simnet.host_us_per_switch.p8", "us"),
    lower("simnet.host_us_per_switch.p16", "us"),
    lower("simnet.host_us_per_msg", "us"),
    lower("simnet.host_us_per_transfer", "us"),
    // mpi / collectives: direct ring all-reduce, 53.5 MB wire.
    lower("mpi.allreduce_virt_ms", "ms"),
    lower("mpi.allreduce_host_us", "us"),
    lower("collectives.ring_allreduce_virt_ms", "ms"),
    lower("collectives.ring_allreduce_host_us", "us"),
    // Bookkeeping of the traced pass itself.
    lower("bench.trace_overhead_share", "ratio"),
    higher("bench.trainer_host_share", "ratio"),
    lower("bench.replay_virt_delta", "ratio"),
];

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ShmCaffe-A, 4 workers, modelled VGG16: communication-bound.
    A4Vgg16,
    /// ShmCaffe-H S4xA4, modelled Inception_v1: the headline configuration.
    H16Inception,
    /// MPICaffe, 8 workers: bypasses SMB and SEASGD entirely.
    Mpi8Inception,
    /// ShmCaffe-A, 4 workers, real training of the mini-Inception proxy.
    RealInceptionA4,
    /// Four clients driving the whole SMB op matrix on a replicated pair.
    SmbMix,
    /// ShmCaffe-A with standby under a seeded combined fault plan.
    FaultA8,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 6] = [
        Workload::A4Vgg16,
        Workload::H16Inception,
        Workload::Mpi8Inception,
        Workload::RealInceptionA4,
        Workload::SmbMix,
        Workload::FaultA8,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::A4Vgg16 => "a4_vgg16",
            Workload::H16Inception => "h16_inception",
            Workload::Mpi8Inception => "mpi8_inception",
            Workload::RealInceptionA4 => "real_inception_a4",
            Workload::SmbMix => "smb_mix",
            Workload::FaultA8 => "fault_a8",
        }
    }

    /// Why the workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::A4Vgg16 => {
                "ShmCaffe-A, 4 workers, modelled VGG16: ~80% of an iteration is non-overlapped \
                 SEASGD exchange, so seasgd/smb/rdma/simnet links set virt_iter_ms"
            }
            Workload::H16Inception => {
                "ShmCaffe-H S4xA4 on 4 nodes, modelled Inception_v1: compute-bound headline \
                 config; PCIe ring all-reduce plus 20+ simulated processes load host_s"
            }
            Workload::Mpi8Inception => {
                "MPICaffe, 8 workers: mpi+collectives only, no smb/seasgd; the bypass workload \
                 on which an SMB or SEASGD change must move no virt_* metric"
            }
            Workload::RealInceptionA4 => {
                "ShmCaffe-A, 4 workers really training mini-Inception on synthetic images: \
                 tensor/dnn kernels are >90% of host_s; loss target guards against staleness"
            }
            Workload::SmbMix => {
                "4 clients on 2 nodes run a seeded mix of the whole SMB op matrix on a \
                 CRC-paged replicated pair with 1 MiB buffers: whole-buffer ops beside range ops"
            }
            Workload::FaultA8 => {
                "ShmCaffe-A with standby, 8 workers, seeded wire flips on a CRC-paged pair, primary \
                 memory-server crash and a worker crash with rejoin: retry/fail-over/fence paths"
            }
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.name));
        for n in &names {
            assert!(valid(n), "bad name {n:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.unit.len() <= 16 && !m.unit.is_empty(), "bad unit on {}", m.name);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for w in Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{}", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }

    /// Every quoted string following `"name":` in `text`.
    fn names_in(text: &str) -> Vec<String> {
        text.split("\"name\":")
            .skip(1)
            .filter_map(|rest| rest.split('"').nth(1).map(str::to_string))
            .collect()
    }

    #[test]
    fn manifest_lists_exactly_these_names() {
        let manifest = include_str!("../../../../../BENCHMARK.json");
        let mut listed = names_in(manifest);
        let mut defined: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        defined.extend(END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.name.to_string()));
        listed.sort();
        defined.sort();
        assert_eq!(listed, defined, "BENCHMARK.json and names.rs disagree");
        for m in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            );
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
