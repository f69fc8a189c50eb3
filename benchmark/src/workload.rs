//! The four workloads: what each sorts and on which cluster shape. Why each
//! was chosen is recorded in `BENCHMARK.json` and the README's table.
//!
//! Inputs come from the splitmix64 generator below and from nothing else in
//! the repo, so they stay bit-identical when `pgxd-datagen` or `rand` change.
//! The program under test receives only the generated shards.

use crate::verify::Fingerprint;
use pgxd::MachineCtx;
use pgxd_core::{DistSorter, SortedPartition};

/// Seed of the committed ledger entries and of the golden fingerprints.
pub const DEFAULT_SEED: u64 = 20170529;

/// How one iteration is run and clocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One fresh `Cluster` run doing one sort, clocked around the run call.
    FreshCluster,
    /// Back-to-back sorts inside one long-lived cluster run (closed loop,
    /// one client), each bracketed by barriers and clocked on machine 0.
    ClosedLoop,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keys {
    /// Uniform on [0, 2^40).
    Uniform40,
    /// `floor(-2 ln u) * 1000` (paper Fig. 4d): about 39 % of keys are 0.
    ExpDup,
    /// 32-byte records `(key, [u64; 3])`, key uniform on all of `u64`.
    Records,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub keys: Keys,
    /// Total items over all machines.
    pub n: usize,
    pub machines: usize,
    pub workers: usize,
    pub mode: Mode,
    /// Untimed sorts that end every set-up.
    pub warmups: usize,
    /// Fingerprint of the input at [`DEFAULT_SEED`]; start-up refuses to run
    /// if the generator no longer reproduces it, and prints the new one.
    pub golden: Fingerprint,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "uniform_4m",
        keys: Keys::Uniform40,
        n: 1 << 22,
        machines: 4,
        workers: 1,
        mode: Mode::FreshCluster,
        warmups: 2,
        golden: Fingerprint {
            count: 0x400000,
            sum: 0x24e93c472c62953f,
            xor: 0xc92cbadee602cfa1,
        },
    },
    Workload {
        name: "expdup_4m",
        keys: Keys::ExpDup,
        n: 1 << 22,
        machines: 8,
        workers: 1,
        mode: Mode::FreshCluster,
        warmups: 2,
        golden: Fingerprint {
            count: 0x400000,
            sum: 0x6a8cb28bda09d096,
            xor: 0xf93c6f4435499e22,
        },
    },
    Workload {
        name: "records_1m",
        keys: Keys::Records,
        n: 1 << 20,
        machines: 4,
        workers: 2,
        mode: Mode::FreshCluster,
        warmups: 2,
        golden: Fingerprint {
            count: 0x100000,
            sum: 0x5d67510a351519b8,
            xor: 0x2e7e645724cf2b18,
        },
    },
    Workload {
        name: "small_64k",
        keys: Keys::Uniform40,
        n: 1 << 16,
        machines: 4,
        workers: 1,
        mode: Mode::ClosedLoop,
        warmups: 50,
        golden: Fingerprint {
            count: 0x10000,
            sum: 0xe8e52e9fbfcccee3,
            xor: 0xce50c38f5eeb1097,
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// splitmix64 (Steele, Lea, Flood 2014): the benchmark's only randomness.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        mix64(self.0)
    }
}

/// splitmix64's output function; also the verifier's per-item hash.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// What the benchmark sorts: plain `u64` keys or 32-byte records.
pub trait Item: Copy + Ord + Send + Sync + 'static {
    fn from_key(key: u64) -> Self;
    fn key(&self) -> u64;
    /// Hash of the whole item, payload included.
    fn digest(&self) -> u64;
    /// The payload still belongs to the key.
    fn intact(&self) -> bool;
    /// The `DistSorter` entry point this item type goes through.
    fn dist_sort(
        sorter: &DistSorter,
        ctx: &mut MachineCtx,
        local: Vec<Self>,
    ) -> SortedPartition<Self>;
}

impl Item for u64 {
    fn from_key(key: u64) -> Self {
        key
    }
    fn key(&self) -> u64 {
        *self
    }
    fn digest(&self) -> u64 {
        mix64(*self)
    }
    fn intact(&self) -> bool {
        true
    }
    fn dist_sort(
        sorter: &DistSorter,
        ctx: &mut MachineCtx,
        local: Vec<Self>,
    ) -> SortedPartition<Self> {
        sorter.sort(ctx, local)
    }
}

pub type Record = (u64, [u64; 3]);

fn payload_of(key: u64) -> [u64; 3] {
    [mix64(key ^ 1), mix64(key ^ 2), mix64(key ^ 3)]
}

impl Item for Record {
    fn from_key(key: u64) -> Self {
        (key, payload_of(key))
    }
    fn key(&self) -> u64 {
        self.0
    }
    fn digest(&self) -> u64 {
        let [a, b, c] = self.1;
        mix64(self.0 ^ a.rotate_left(1) ^ b.rotate_left(2) ^ c.rotate_left(3))
    }
    fn intact(&self) -> bool {
        self.1 == payload_of(self.0)
    }
    fn dist_sort(
        sorter: &DistSorter,
        ctx: &mut MachineCtx,
        local: Vec<Self>,
    ) -> SortedPartition<Self> {
        sorter.sort_pairs(ctx, local)
    }
}

impl Workload {
    /// The input, already cut into one contiguous shard per machine.
    pub fn generate<T: Item>(&self, seed: u64) -> Vec<Vec<T>> {
        // Every workload draws from its own stream of the one seed.
        let stream = self.name.bytes().fold(seed, |h, b| mix64(h ^ u64::from(b)));
        let mut rng = SplitMix64::new(stream);
        let per_machine = self.n / self.machines;
        (0..self.machines)
            .map(|_| {
                (0..per_machine)
                    .map(|_| T::from_key(self.keys.draw(&mut rng)))
                    .collect()
            })
            .collect()
    }

    pub fn item_bytes(&self) -> usize {
        match self.keys {
            Keys::Records => std::mem::size_of::<Record>(),
            _ => std::mem::size_of::<u64>(),
        }
    }
}

impl Keys {
    fn draw(self, rng: &mut SplitMix64) -> u64 {
        match self {
            Keys::Uniform40 => rng.next_u64() >> 24,
            Keys::Records => rng.next_u64(),
            Keys::ExpDup => {
                // u uniform on (0, 1], so ln u is finite.
                let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
                (-2.0 * u.ln()).floor() as u64 * 1000
            }
        }
    }
}
