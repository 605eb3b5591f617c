//! **HCA2** and **HCA** — the paper's previous-generation algorithms
//! (baselines; see \[10\] and Fig. 1a).
//!
//! HCA2 learns models *bottom-up* over an inverted binomial tree between
//! **local** clocks, merges (composes) them towards the root, and finally
//! distributes each rank's composed model with one `MPI_Scatter` —
//! `O(log p)` rounds. Composition compounds the per-edge model errors,
//! which is exactly the weakness HCA3 removes.
//!
//! HCA is HCA2 plus a final `O(p)` pass in which the root re-measures
//! the offset to every rank and each rank re-anchors its intercept.

use hcs_clock::{BoxClock, GlobalClockLM, LinearModel};
use hcs_mpi::{tags, Comm};
use hcs_sim::{RankCtx, Span};

use crate::learn::{learn_clock_model, LearnParams};
use crate::offset::OffsetSpec;
use crate::sync::ClockSync;

/// The HCA2 synchronization algorithm.
#[derive(Debug, Clone)]
pub struct Hca2 {
    /// Regression parameters.
    pub params: LearnParams,
    /// Offset estimator building block.
    pub offset: OffsetSpec,
}

impl Default for Hca2 {
    fn default() -> Self {
        Self {
            params: LearnParams::default(),
            offset: OffsetSpec::Skampi { nexchanges: 10 },
        }
    }
}

impl Hca2 {
    /// HCA2 with explicit parameters.
    pub fn new(params: LearnParams, offset: OffsetSpec) -> Self {
        Self { params, offset }
    }

    /// `hca2/recompute intercept/<nfitpoints>/SKaMPI-Offset/<pingpongs>`.
    pub fn skampi(nfitpoints: usize, pingpongs: usize) -> Self {
        Self {
            params: LearnParams {
                nfitpoints,
                recompute_intercept: true,
                ..LearnParams::default()
            },
            offset: OffsetSpec::Skampi {
                nexchanges: pingpongs,
            },
        }
    }

    /// Overrides the fit-point spacing (see `LearnParams::spacing_s`).
    pub fn with_spacing(mut self, spacing_s: Span) -> Self {
        self.params.spacing_s = spacing_s;
        self
    }
}

/// Serialized table entry: (comm rank, slope, intercept).
fn pack_table(table: &[(usize, LinearModel)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(table.len() * 24);
    for &(rank, lm) in table {
        out.extend_from_slice(&(rank as u64).to_le_bytes());
        out.extend_from_slice(&lm.slope.to_le_bytes());
        out.extend_from_slice(&lm.intercept.to_le_bytes());
    }
    out
}

fn unpack_table(buf: &[u8]) -> Vec<(usize, LinearModel)> {
    assert_eq!(buf.len() % 24, 0, "malformed model table");
    buf.chunks_exact(24)
        .map(|c| {
            let rank =
                u64::from_le_bytes(c[0..8].try_into().expect("24-byte table record")) as usize;
            let slope = f64::from_le_bytes(c[8..16].try_into().expect("24-byte table record"));
            let intercept = f64::from_le_bytes(c[16..24].try_into().expect("24-byte table record"));
            (rank, LinearModel::new(slope, intercept))
        })
        .collect()
}

/// Shared tree phase of HCA2/HCA: learn local-clock models bottom-up,
/// merge towards rank 0, scatter. Returns this rank's model to rank 0's
/// local clock frame.
fn tree_sync(
    ctx: &mut RankCtx,
    comm: &mut Comm,
    params: LearnParams,
    offset: OffsetSpec,
    clk: &mut BoxClock,
) -> LinearModel {
    let nprocs = comm.size();
    let r = comm.rank();
    let mut offset_alg = offset.build();

    let mut nrounds = 0usize;
    while (1usize << (nrounds + 1)) <= nprocs {
        nrounds += 1;
    }
    let max_power = 1usize << nrounds;

    // My table maps rank -> model into *my* local clock frame.
    let mut table: Vec<(usize, LinearModel)> = vec![(r, LinearModel::IDENTITY)];

    // Fold the ranks beyond the largest power of two in first, so their
    // models travel up the tree with everything else.
    if r >= max_power {
        let p_ref = r - max_power;
        if ctx.obs_on() {
            ctx.obs_enter("hca2/foldin/client");
        }
        let lm = learn_clock_model(ctx, comm, offset_alg.as_mut(), params, p_ref, r, clk)
            .expect("client obtains a model");
        // lm maps my readings into p_ref's frame.
        let composed: Vec<(usize, LinearModel)> = table
            .iter()
            .map(|&(g, m)| (g, LinearModel::compose(&lm, &m)))
            .collect();
        comm.send(ctx, p_ref, tags::TABLE, &pack_table(&composed));
        ctx.obs_exit();
    } else {
        if r + max_power < nprocs {
            let client = r + max_power;
            if ctx.obs_on() {
                ctx.obs_enter("hca2/foldin/ref");
            }
            learn_clock_model(ctx, comm, offset_alg.as_mut(), params, r, client, clk);
            let buf = comm.recv(ctx, client, tags::TABLE);
            table.extend(unpack_table(&buf));
            ctx.obs_exit();
        }

        // Inverted binomial tree: leaves first (Fig. 1a).
        for i in 1..=nrounds {
            let running_power = 1usize << i;
            let next_power = 1usize << (i - 1);
            if r % running_power == next_power {
                // Client of r - next_power: learn, compose my whole
                // subtree's models into the parent frame, ship them.
                let p_ref = r - next_power;
                if ctx.obs_on() {
                    ctx.obs_enter_seq("hca2/round/client", i as u32);
                }
                let lm = learn_clock_model(ctx, comm, offset_alg.as_mut(), params, p_ref, r, clk)
                    .expect("client obtains a model");
                let composed: Vec<(usize, LinearModel)> = table
                    .iter()
                    .map(|&(g, m)| (g, LinearModel::compose(&lm, &m)))
                    .collect();
                comm.send(ctx, p_ref, tags::TABLE, &pack_table(&composed));
                ctx.obs_exit();
                break;
            } else if r.is_multiple_of(running_power) {
                let client = r + next_power;
                if client < max_power {
                    if ctx.obs_on() {
                        ctx.obs_enter_seq("hca2/round/ref", i as u32);
                    }
                    learn_clock_model(ctx, comm, offset_alg.as_mut(), params, r, client, clk);
                    let buf = comm.recv(ctx, client, tags::TABLE);
                    table.extend(unpack_table(&buf));
                    ctx.obs_exit();
                }
            }
        }
    }

    // Root scatters each rank's model (paper Fig. 1a bottom).
    if ctx.obs_on() {
        ctx.obs_enter("hca2/scatter");
    }
    let chunks: Option<Vec<Vec<u8>>> = if r == 0 {
        let mut per_rank = vec![LinearModel::IDENTITY; nprocs];
        assert_eq!(
            table.len(),
            nprocs,
            "root collected {} of {nprocs} models",
            table.len()
        );
        for (g, m) in table {
            per_rank[g] = m;
        }
        Some(per_rank.iter().map(|m| pack_table(&[(0, *m)])).collect())
    } else {
        None
    };
    let mine = comm.scatter(ctx, 0, chunks.as_deref());
    let lm_mine = unpack_table(&mine)[0].1;
    ctx.obs_exit();
    lm_mine
}

impl ClockSync for Hca2 {
    fn sync_clocks(&mut self, ctx: &mut RankCtx, comm: &mut Comm, clk: BoxClock) -> BoxClock {
        let mut clk: BoxClock = GlobalClockLM::dummy(clk).boxed();
        if comm.size() <= 1 {
            return clk;
        }
        let lm = tree_sync(ctx, comm, self.params, self.offset, &mut clk);
        GlobalClockLM::new(clk, lm).boxed()
    }

    fn label(&self) -> String {
        let ri = if self.params.recompute_intercept {
            "recompute_intercept/"
        } else {
            ""
        };
        format!(
            "hca2/{ri}{}/{}",
            self.params.nfitpoints,
            self.offset.label()
        )
    }
}

/// The HCA synchronization algorithm: HCA2's tree phase plus a final
/// sequential intercept-adjustment round between the root and every
/// other rank (making it technically `O(p)`).
#[derive(Debug, Clone)]
pub struct Hca {
    /// Regression parameters.
    pub params: LearnParams,
    /// Offset estimator building block.
    pub offset: OffsetSpec,
}

impl Default for Hca {
    fn default() -> Self {
        Self {
            params: LearnParams::default(),
            offset: OffsetSpec::Skampi { nexchanges: 10 },
        }
    }
}

impl Hca {
    /// `hca/<nfitpoints>/SKaMPI-Offset/<pingpongs>`.
    pub fn skampi(nfitpoints: usize, pingpongs: usize) -> Self {
        Self {
            params: LearnParams {
                nfitpoints,
                recompute_intercept: false,
                ..LearnParams::default()
            },
            offset: OffsetSpec::Skampi {
                nexchanges: pingpongs,
            },
        }
    }

    /// Overrides the fit-point spacing (see `LearnParams::spacing_s`).
    pub fn with_spacing(mut self, spacing_s: Span) -> Self {
        self.params.spacing_s = spacing_s;
        self
    }
}

impl ClockSync for Hca {
    fn sync_clocks(&mut self, ctx: &mut RankCtx, comm: &mut Comm, clk: BoxClock) -> BoxClock {
        let mut clk: BoxClock = GlobalClockLM::dummy(clk).boxed();
        if comm.size() <= 1 {
            return clk;
        }
        let mut lm = tree_sync(ctx, comm, self.params, self.offset, &mut clk);

        // Final O(p) pass: re-anchor every intercept against the root,
        // measured between the *base* clocks (the root serves clients in
        // rank order; message matching sequences this naturally).
        let mut offset_alg = self.offset.build();
        let r = comm.rank();
        if ctx.obs_on() {
            ctx.obs_enter("hca/reanchor");
        }
        if r == 0 {
            for client in 1..comm.size() {
                offset_alg.measure_offset(ctx, comm, &mut clk, 0, client);
            }
        } else {
            let o = offset_alg
                .measure_offset(ctx, comm, &mut clk, 0, r)
                .expect("client obtains an offset");
            lm.reanchor(o.timestamp, o.offset);
        }
        ctx.obs_exit();
        GlobalClockLM::new(clk, lm).boxed()
    }

    fn label(&self) -> String {
        format!("hca/{}/{}", self.params.nfitpoints, self.offset.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::run_sync;
    use hcs_clock::{Clock, LocalClock, TimeSource};
    use hcs_sim::machines::{quiet_testbed, testbed};

    fn run_and_measure<F>(make: F, nodes: usize, cores: usize, seed: u64, quiet: bool) -> Vec<f64>
    where
        F: Fn() -> Box<dyn ClockSync> + Sync,
    {
        let machine = if quiet {
            quiet_testbed(nodes, cores)
        } else {
            testbed(nodes, cores)
        };
        let cluster = machine.cluster(seed);
        let evals = cluster.run(|ctx| {
            let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let mut comm = Comm::world(ctx);
            let mut alg = make();
            let out = run_sync(alg.as_mut(), ctx, &mut comm, Box::new(clk));
            out.clock
                .true_eval(hcs_sim::SimTime::from_secs(5.0))
                .raw_seconds()
        });
        let reference = evals[0];
        evals.iter().map(|v| v - reference).collect()
    }

    #[test]
    fn hca2_quiet_network_is_exact() {
        let errs = run_and_measure(|| Box::new(Hca2::skampi(30, 5)), 4, 2, 1, true);
        for (r, e) in errs.iter().enumerate() {
            assert!(e.abs() < 1e-7, "rank {r} err {e:.3e}");
        }
    }

    #[test]
    fn hca2_realistic_network_syncs() {
        let errs = run_and_measure(|| Box::new(Hca2::skampi(40, 10)), 8, 2, 2, false);
        for (r, e) in errs.iter().enumerate() {
            assert!(e.abs() < 8e-6, "rank {r} err {e:.3e}");
        }
    }

    #[test]
    fn hca_realistic_network_syncs() {
        let errs = run_and_measure(|| Box::new(Hca::skampi(40, 10)), 8, 2, 3, false);
        for (r, e) in errs.iter().enumerate() {
            assert!(e.abs() < 8e-6, "rank {r} err {e:.3e}");
        }
    }

    #[test]
    fn hca2_non_power_of_two() {
        for p in [3usize, 5, 6] {
            let errs =
                run_and_measure(|| Box::new(Hca2::skampi(30, 8)), p, 1, 20 + p as u64, false);
            assert_eq!(errs.len(), p);
            for (r, e) in errs.iter().enumerate() {
                assert!(e.abs() < 8e-6, "p={p} rank {r} err {e:.3e}");
            }
        }
    }

    #[test]
    fn table_pack_roundtrip() {
        let t = vec![
            (3usize, LinearModel::new(1e-6, -2.0)),
            (7, LinearModel::new(-5e-7, 0.25)),
        ];
        assert_eq!(unpack_table(&pack_table(&t)), t);
    }

    #[test]
    fn labels() {
        assert_eq!(
            Hca2::skampi(1000, 100).label(),
            "hca2/recompute_intercept/1000/SKaMPI-Offset/100"
        );
        assert_eq!(Hca::skampi(1000, 100).label(), "hca/1000/SKaMPI-Offset/100");
    }
}
