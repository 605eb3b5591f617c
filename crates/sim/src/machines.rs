//! Machine profiles matching the paper's Table I.
//!
//! | Name    | Hardware                                   | Interconnect   |
//! |---------|--------------------------------------------|----------------|
//! | Jupiter | 36 × dual Opteron 6134 (2 × 8 cores)       | InfiniBand QDR |
//! | Hydra   | 36 × dual Xeon Gold 6130 (2 × 16 cores)    | Intel OmniPath |
//! | Titan   | Cray XK7, Opteron 6274 (16 cores/node)     | Cray Gemini    |
//!
//! The latency numbers are calibrated to the paper's own observations
//! (Jupiter ping-pong latency 3–4 µs; Hydra "smaller latency" allowing
//! more ping-pongs; Titan with more jitter/variance at scale). Absolute
//! values are a model, not a measurement — the reproduction targets the
//! *shapes* of the paper's figures.

#![forbid(unsafe_code)]

use crate::clockspec::ClockSpec;
use crate::engine::EnvSpec;
use crate::net::{Jitter, LevelLatency, NetworkModel};
use crate::noise::NoiseSpec;
use crate::timebase::{secs, Span};
use crate::topology::Topology;
use crate::Cluster;

/// A named machine profile: topology defaults + network + clock model,
/// plus the descriptive strings of Table I.
#[derive(Debug, Clone)]
pub struct MachineSpec {
    /// Machine name as in the paper.
    pub name: &'static str,
    /// Hardware description (Table I, "Hardware").
    pub hardware: &'static str,
    /// MPI library used in the paper (Table I, "MPI Libraries").
    pub mpi_library: &'static str,
    /// Compiler used in the paper (Table I, "Compiler").
    pub compiler: &'static str,
    /// Default topology (can be overridden with [`MachineSpec::with_shape`]).
    pub topology: Topology,
    /// Network model.
    pub network: NetworkModel,
    /// Oscillator parameters.
    pub clock: ClockSpec,
    /// Optional OS-noise injection (preemptions of compute phases).
    pub noise: Option<NoiseSpec>,
}

impl MachineSpec {
    /// Overrides the topology (e.g. to run "32 × 16 processes on
    /// Jupiter" like the paper, or to scale an experiment down).
    pub fn with_shape(mut self, nodes: usize, sockets: usize, cores_per_socket: usize) -> Self {
        self.topology = Topology::new(nodes, sockets, cores_per_socket);
        self
    }

    /// This machine's environment — network model plus optional OS
    /// noise, no faults — as one [`EnvSpec`] value. Chaos drivers add a
    /// [`crate::fault::FaultPlan`] via [`EnvSpec::faults`] before
    /// handing it to [`crate::ClusterBuilder::env`].
    pub fn env_spec(&self) -> EnvSpec {
        let mut env = EnvSpec::new(self.network.clone());
        if let Some(n) = self.noise {
            env = env.noise(n);
        }
        env
    }

    /// Builds a [`Cluster`] with the given seed.
    pub fn cluster(&self, seed: u64) -> Cluster {
        Cluster::builder()
            .topology(self.topology.clone())
            .env(self.env_spec())
            .clock(self.clock.clone())
            .seed(seed)
            .build()
    }
}

fn intranode_levels(socket_base: f64, node_base: f64) -> (LevelLatency, LevelLatency) {
    let mk = |base: f64| LevelLatency {
        base_s: secs(base),
        per_byte_s: secs(1.0 / 8e9), // ~8 GB/s shared-memory copies
        jitter: Jitter {
            median_s: secs(base * 0.06),
            sigma: 0.45,
            spike_prob: 2e-5,
            spike_mean_s: secs(8e-6),
        },
    };
    (mk(socket_base), mk(node_base))
}

/// Jupiter: 36 × dual AMD Opteron 6134 (2 sockets × 8 cores),
/// InfiniBand QDR, Open MPI 3.1.0, gcc 6.3.1.
pub fn jupiter() -> MachineSpec {
    let (same_socket, same_node) = intranode_levels(0.35e-6, 0.75e-6);
    MachineSpec {
        name: "Jupiter",
        hardware: "36 x Dual Opteron 6134 @ 2.3 GHz, InfiniBand QDR",
        mpi_library: "Open MPI 3.1.0",
        compiler: "gcc 6.3.1",
        topology: Topology::new(36, 2, 8),
        network: NetworkModel {
            same_socket,
            same_node,
            inter_node: LevelLatency {
                base_s: secs(3.3e-6),          // paper: ping-pong latency 3-4 us
                per_byte_s: secs(1.0 / 3.2e9), // QDR ~32 Gbit/s
                jitter: Jitter {
                    median_s: secs(0.22e-6),
                    sigma: 0.55,
                    spike_prob: 3e-4,
                    spike_mean_s: secs(40e-6),
                },
            },
            send_overhead_s: secs(0.10e-6),
            recv_overhead_s: secs(0.10e-6),
            asymmetry_frac: 0.012,
            nic_gap_s: secs(1.0e-6),
        },
        clock: ClockSpec {
            // Jupiter's oscillators are comparatively stable — the paper
            // found JK (whose early-synced models are minutes old by the
            // time they are used) *most accurate* on this machine, which
            // requires slowly changing drift.
            wander_amp_ppm: 0.035,
            wander_period_s: secs(450.0),
            ..ClockSpec::commodity()
        },
        noise: None,
    }
}

/// Hydra: 36 × dual Intel Xeon Gold 6130 (2 sockets × 16 cores),
/// Intel OmniPath, Open MPI 3.1.0, gcc 6.3.0.
pub fn hydra() -> MachineSpec {
    let (same_socket, same_node) = intranode_levels(0.25e-6, 0.55e-6);
    MachineSpec {
        name: "Hydra",
        hardware: "36 x Dual Intel Xeon Gold 6130 @ 2.1 GHz, Intel OmniPath",
        mpi_library: "Open MPI 3.1.0",
        compiler: "gcc 6.3.0",
        topology: Topology::new(36, 2, 16),
        network: NetworkModel {
            same_socket,
            same_node,
            inter_node: LevelLatency {
                base_s: secs(1.9e-6), // "the newer OmniPath network has a smaller latency"
                per_byte_s: secs(1.0 / 12.5e9), // 100 Gbit/s
                jitter: Jitter {
                    median_s: secs(0.10e-6),
                    sigma: 0.50,
                    spike_prob: 2e-4,
                    spike_mean_s: secs(25e-6),
                },
            },
            send_overhead_s: secs(0.08e-6),
            recv_overhead_s: secs(0.08e-6),
            asymmetry_frac: 0.008,
            nic_gap_s: secs(0.55e-6),
        },
        clock: ClockSpec {
            // Newer Xeons: slightly tighter oscillators, but the same
            // qualitative wander (the paper measured Fig. 2 on Hydra).
            skew_sd_ppm: 0.45,
            wander_amp_ppm: 0.07,
            ..ClockSpec::commodity()
        },
        noise: None,
    }
}

/// Titan: Cray XK7 with one 16-core Opteron 6274 per node, Cray Gemini
/// interconnect, cray-mpich 7.6.3, gcc 4.9.3.
///
/// Default shape is 256 × 16 for affordability; the paper's Fig. 6 ran
/// 1024 × 16 (16 384 processes) — use `with_shape(1024, 1, 16)`.
pub fn titan() -> MachineSpec {
    let (same_socket, same_node) = intranode_levels(0.40e-6, 0.80e-6);
    MachineSpec {
        name: "Titan",
        hardware: "Cray XK7, Opteron 6274 @ 2.2 GHz, Cray Gemini",
        mpi_library: "cray-mpich/7.6.3",
        compiler: "gcc 4.9.3",
        topology: Topology::new(256, 1, 16),
        network: NetworkModel {
            same_socket,
            same_node,
            inter_node: LevelLatency {
                base_s: secs(4.6e-6),
                per_byte_s: secs(1.0 / 4.0e9),
                // Torus network with shared links: more jitter, fatter
                // congestion tail — the source of Fig. 6's variance.
                jitter: Jitter {
                    median_s: secs(0.5e-6),
                    sigma: 0.8,
                    spike_prob: 1.2e-3,
                    spike_mean_s: secs(80e-6),
                },
            },
            send_overhead_s: secs(0.12e-6),
            recv_overhead_s: secs(0.12e-6),
            asymmetry_frac: 0.02,
            nic_gap_s: secs(1.2e-6),
        },
        clock: ClockSpec {
            // The paper observed rapidly changing drift on Titan.
            skew_sd_ppm: 0.8,
            wander_amp_ppm: 0.18,
            wander_period_s: secs(150.0),
            ..ClockSpec::commodity()
        },
        noise: None,
    }
}

/// A commodity Gigabit-Ethernet/TCP cluster — not in the paper's
/// Table I, but the kind of machine downstream users of this library
/// actually have. Latencies are ~20x InfiniBand's, which stresses the
/// window-based scheme's sizing problem and makes hierarchical
/// synchronization even more attractive.
pub fn ethernet() -> MachineSpec {
    let (same_socket, same_node) = intranode_levels(0.40e-6, 0.85e-6);
    MachineSpec {
        name: "EthCluster",
        hardware: "16 x Dual Xeon E5-2680 @ 2.4 GHz, 10 GbE (TCP)",
        mpi_library: "Open MPI 3.1.0 (tcp btl)",
        compiler: "gcc 7.3.0",
        topology: Topology::new(16, 2, 8),
        network: NetworkModel {
            same_socket,
            same_node,
            inter_node: LevelLatency {
                base_s: secs(28e-6), // kernel TCP stack round
                per_byte_s: secs(1.0 / 1.1e9),
                jitter: Jitter {
                    median_s: secs(6e-6),
                    sigma: 0.9,
                    spike_prob: 2e-3,
                    spike_mean_s: secs(300e-6),
                },
            },
            send_overhead_s: secs(1.5e-6),
            recv_overhead_s: secs(1.5e-6),
            asymmetry_frac: 0.03,
            nic_gap_s: secs(2.5e-6),
        },
        clock: ClockSpec::commodity(),
        noise: Some(NoiseSpec::commodity_linux()),
    }
}

/// All Table I machines, in paper order.
pub fn all() -> Vec<MachineSpec> {
    vec![jupiter(), hydra(), titan()]
}

/// A tiny, fast, low-noise machine for unit and integration tests:
/// `nodes × 1 socket × cores`, commodity clocks scaled down in noise.
pub fn testbed(nodes: usize, cores_per_node: usize) -> MachineSpec {
    let mut m = jupiter().with_shape(nodes, 1, cores_per_node);
    m.name = "Testbed";
    m
}

/// A fully deterministic machine for precision tests: zero jitter, zero
/// link asymmetry, zero NIC contention and ideal clocks. Algorithmic
/// results on it are exact only up to `MpiWtime`'s 1 ns read
/// resolution (ROADMAP item 10), not up to floating-point error.
pub fn quiet_testbed(nodes: usize, cores_per_node: usize) -> MachineSpec {
    let mut m = testbed(nodes, cores_per_node);
    m.name = "QuietTestbed";
    for lvl in [
        &mut m.network.same_socket,
        &mut m.network.same_node,
        &mut m.network.inter_node,
    ] {
        lvl.jitter = Jitter::smooth(Span::ZERO, 0.5);
    }
    m.network.asymmetry_frac = 0.0;
    m.network.nic_gap_s = Span::ZERO;
    m.clock = ClockSpec::ideal();
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Level;

    #[test]
    fn table1_shapes() {
        assert_eq!(jupiter().topology.total_cores(), 36 * 16);
        assert_eq!(hydra().topology.total_cores(), 36 * 32);
        assert_eq!(titan().topology.cores_per_node(), 16);
    }

    #[test]
    fn hydra_network_is_faster_than_jupiter() {
        assert!(
            hydra().network.level(Level::InterNode).base_s
                < jupiter().network.level(Level::InterNode).base_s
        );
    }

    #[test]
    fn titan_is_jitterier() {
        assert!(
            titan().network.level(Level::InterNode).jitter.median_s
                > jupiter().network.level(Level::InterNode).jitter.median_s
        );
        assert!(
            titan().network.level(Level::InterNode).jitter.spike_prob
                > hydra().network.level(Level::InterNode).jitter.spike_prob
        );
    }

    #[test]
    fn with_shape_overrides() {
        let m = jupiter().with_shape(32, 2, 8);
        assert_eq!(m.topology.total_cores(), 512);
    }

    #[test]
    fn cluster_builds() {
        let c = testbed(2, 2).cluster(11);
        assert_eq!(c.topology().total_cores(), 4);
        assert_eq!(c.seed(), 11);
    }

    #[test]
    fn ethernet_is_much_slower_than_the_paper_machines() {
        let e = ethernet();
        assert!(
            e.network.level(Level::InterNode).base_s
                > 5.0 * jupiter().network.level(Level::InterNode).base_s
        );
        assert!(e.noise.is_some(), "commodity cluster ships with OS noise");
    }

    #[test]
    fn all_lists_three_machines() {
        let names: Vec<_> = all().iter().map(|m| m.name).collect();
        assert_eq!(names, ["Jupiter", "Hydra", "Titan"]);
    }
}
