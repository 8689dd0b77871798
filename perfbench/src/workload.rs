//! The three named workloads and the seeded op stream they draw from.

use dynvote_cluster::ClientOp;
use dynvote_storage::FsyncPolicy;

/// How keys are drawn from the object space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Keys {
    /// Every op addresses object 0.
    Single,
    /// Uniform over all objects.
    Uniform,
    /// Zipf(1) over all objects: rank `k` with weight `1/k`.
    Zipf,
}

/// How load is offered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// One in-process client per coordinator, each waiting for its
    /// reply before the next op (channel transport).
    Closed,
    /// A fixed schedule of `rate` ops/s over one binary-TCP connection
    /// per coordinator, pipelined and matched by request id.
    Open {
        /// Offered ops per second.
        rate: u64,
    },
}

/// One named workload. All run a 5-site hybrid cluster in-process.
#[derive(Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Objects every site hosts.
    pub objects: usize,
    /// Key distribution.
    pub keys: Keys,
    /// Share of ops that are reads.
    pub read_fraction: f64,
    /// Sites the clients coordinate at (one client or connection each).
    pub coordinators: [u8; 2],
    /// Closed or open loop.
    pub shape: Shape,
    /// Site stores on disk under this fsync policy (`None`: no disk).
    pub fsync: Option<FsyncPolicy>,
    /// Crash this site at 1/3 of the window, recover it at 2/3.
    pub crash: Option<u8>,
}

/// Sites in every workload's cluster.
pub const SITES: usize = 5;

/// The workloads, in `BENCHMARK.json` order.
pub const ALL: &[Workload] = &[
    // Lock and vote contention on one object between two coordinators;
    // no sockets, no disk.
    Workload {
        name: "contended",
        objects: 1,
        keys: Keys::Single,
        read_fraction: 0.1,
        coordinators: [0, 1],
        shape: Shape::Closed,
        fsync: None,
        crash: None,
    },
    // Many objects on disk, a crash and a recovery from disk. The WAL
    // is written through to the OS without fsync: with fsync always,
    // the shared disk's latency swung commit_rate 4x between
    // consecutive runs (see README.md).
    Workload {
        name: "keyed-durable",
        objects: 4096,
        keys: Keys::Zipf,
        read_fraction: 0.1,
        coordinators: [0, 1],
        shape: Shape::Closed,
        fsync: Some(FsyncPolicy::Never),
        crash: Some(1),
    },
    // Binary TCP clients and the peer reactor path, half reads, no
    // contention, no disk.
    Workload {
        name: "mixed-open",
        objects: 256,
        keys: Keys::Uniform,
        read_fraction: 0.5,
        coordinators: [3, 4],
        shape: Shape::Open { rate: 1000 },
        fsync: None,
        crash: None,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// SplitMix64: a small, seedable generator (the benchmark's inputs
/// depend on `--seed` alone).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, split by `stream` so each client draws
    /// independently.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next();
        rng
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Draws a workload's ops.
#[derive(Clone, Debug)]
pub struct OpGen {
    rng: Rng,
    objects: u32,
    read_fraction: f64,
    /// Zipf CDF, normalised to end at 1 (empty unless Zipf).
    cdf: Vec<f64>,
    keys: Keys,
}

impl OpGen {
    /// The op stream of `workload` for client `stream` under `seed`.
    pub fn new(workload: &Workload, seed: u64, stream: u64) -> Self {
        let objects = workload.objects as u32;
        let cdf = if workload.keys == Keys::Zipf {
            let mut acc = 0.0;
            let mut cdf: Vec<f64> = (1..=objects)
                .map(|k| {
                    acc += 1.0 / f64::from(k);
                    acc
                })
                .collect();
            for c in &mut cdf {
                *c /= acc;
            }
            cdf
        } else {
            Vec::new()
        };
        OpGen {
            rng: Rng::new(seed, stream),
            objects,
            read_fraction: workload.read_fraction,
            cdf,
            keys: workload.keys,
        }
    }

    /// The next key.
    pub fn key(&mut self) -> u32 {
        match self.keys {
            Keys::Single => 0,
            Keys::Uniform => (self.rng.next() % u64::from(self.objects)) as u32,
            Keys::Zipf => {
                let u = self.rng.unit();
                (self.cdf.partition_point(|&c| c < u) as u32).min(self.objects - 1)
            }
        }
    }

    /// The next op.
    pub fn op(&mut self) -> ClientOp {
        let read = self.rng.unit() < self.read_fraction;
        let key = self.key();
        if read {
            ClientOp::Read { key }
        } else {
            ClientOp::Update { key }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ops_other_seed_other_ops() {
        for w in ALL {
            let a: Vec<ClientOp> = {
                let mut g = OpGen::new(w, 7, 0);
                (0..200).map(|_| g.op()).collect()
            };
            let b: Vec<ClientOp> = {
                let mut g = OpGen::new(w, 7, 0);
                (0..200).map(|_| g.op()).collect()
            };
            let c: Vec<ClientOp> = {
                let mut g = OpGen::new(w, 8, 0);
                (0..200).map(|_| g.op()).collect()
            };
            assert_eq!(a, b);
            assert_ne!(a, c);
        }
    }

    #[test]
    fn keys_stay_in_range_and_zipf_is_skewed() {
        let w = by_name("keyed-durable").unwrap();
        let mut g = OpGen::new(w, 1, 0);
        let keys: Vec<u32> = (0..20_000).map(|_| g.key()).collect();
        assert!(keys.iter().all(|&k| (k as usize) < w.objects));
        let hot = keys.iter().filter(|&&k| k == 0).count() as f64 / keys.len() as f64;
        // Rank 1 of Zipf(1) over 4096 keys carries 1/H(4096) ~ 11.4%.
        assert!((0.10..0.13).contains(&hot), "{hot}");
        let w = by_name("mixed-open").unwrap();
        let mut g = OpGen::new(w, 1, 0);
        let reads = (0..20_000)
            .filter(|_| matches!(g.op(), ClientOp::Read { .. }))
            .count();
        assert!((9_500..10_500).contains(&reads), "{reads}");
    }
}
