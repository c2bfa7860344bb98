//! Seeded inputs. Every workload derives its addresses from `--seed`
//! here; the program only ever sees what these functions return.

use std::collections::BTreeMap;
use std::sync::Arc;

use v6addr::{Iid, Mac, Prefix};
use v6netsim::rng::{hash64, Rng};
use v6serve::SnapshotBuilder;
use v6store::format::AliasEntry;
use v6stream::{country_code, AsTag, PrefixAsTable, SharedResolver};

/// Vendor OUIs the EUI-64 interface identifiers are drawn from.
const OUIS: [u64; 4] = [0x00_50_56, 0x00_1b_63, 0x3c_d9_2b, 0xf4_f5_d8];

fn eui64(oui: u64, nic: u64) -> u128 {
    let mac = Mac::from_u64((oui << 24) | (nic & 0xff_ffff));
    u128::from(Iid::from_mac(mac).as_u64())
}

fn is_eui64(bits: u128) -> bool {
    (bits >> 24) & 0xffff == 0xfffe
}

// The served corpora are laid out like the hitlist the paper pipeline
// collects: its passive NTP dataset (`Experiment::ntp` at the default
// scale). Measured at seed 2022 (1 538 148 addresses in 757 974 /64s,
// 44 551 /48s and 101 /32s, first sightings spread evenly over 32
// weeks) and at seed 7 (1 575 929 addresses), whose figures agree with
// these within 1 %. A table row `(low, high, share)` says that `share`
// groups in 10 000 hold `low..=high` members; sizes are drawn uniformly
// within a row, which puts the generated means a little above the
// measured ones (2.17 addresses per /64, 18.8 /64s per /48). The tables
// are drawn independently of each other: the measurement gives no joint
// figures.

/// Addresses per /64 (mean 2.03): most /64s hold one address, a few
/// hold up to 256 and carry a third of all addresses.
const ADDRS_PER_64: [(u64, u64, u64); 9] = [
    (1, 1, 8395),
    (2, 2, 1137),
    (3, 4, 236),
    (5, 8, 55),
    (9, 16, 23),
    (17, 32, 49),
    (33, 64, 45),
    (65, 128, 56),
    (129, 256, 4),
];

/// /64s per /48 (mean 17.0).
const NETS64_PER_48: [(u64, u64, u64); 9] = [
    (1, 1, 1696),
    (2, 2, 1523),
    (3, 4, 1375),
    (5, 8, 1699),
    (9, 16, 666),
    (17, 32, 246),
    (33, 64, 2512),
    (65, 128, 240),
    (129, 256, 43),
];

/// Addresses per routed /32 (1 538 148 over 101).
const ADDRS_PER_32: u64 = 15_229;

/// Interface-identifier classes per 10 000 addresses (`classify_structural`
/// bands, EUI-64 first): EUI-64 1 635, medium entropy 1 522, low entropy
/// 57, low byte 2; the other 6 784 are high entropy.
const IID_CLASSES: [u64; 4] = [1635, 1522, 57, 2];

/// Study weeks first sightings are spread over.
const WEEKS: u64 = 32;

/// One /48 in this many is aliased, with a /56 and a /64 nested inside
/// it. The collected hitlist's campaign finds a single aliased /33 at
/// this scale, so this is not measured: it gives the 8 M-address corpus
/// of `read-engine` (about 206 k /48s) about 4 k alias prefixes.
const ALIAS_EVERY: u64 = 154;

/// A size drawn from a table of `(low, high, per 10 000)` rows.
fn draw(rng: &mut Rng, table: &[(u64, u64, u64)]) -> u64 {
    let mut at = rng.below(10_000);
    for &(low, high, share) in table {
        if at < share {
            return low + rng.below(high - low + 1);
        }
        at -= share;
    }
    unreachable!("table shares sum to 10 000")
}

fn iid(rng: &mut Rng) -> u64 {
    let mut at = rng.below(10_000);
    for (class, &share) in IID_CLASSES.iter().enumerate() {
        if at < share {
            return match class {
                0 => eui64(OUIS[rng.below(4) as usize], rng.next_u64()) as u64,
                1 => rng.next_u64() & 0xffff_ffff,
                2 => ((1 + rng.below(15)) << 32) | (1 + rng.below(15)),
                _ => 1 + rng.below(255),
            };
        }
        at -= share;
    }
    rng.next_u64()
}

/// The `i`-th of up to 2^16 distinct 16-bit values, scattered by `base`.
fn scatter16(i: u64, base: u64) -> u128 {
    u128::from(i.wrapping_mul(0x9e3b).wrapping_add(base) & 0xffff)
}

/// What a served corpus leaves behind. Its addresses went into the
/// builder as they were drawn and are not kept.
pub struct Summary {
    pub addresses: u64,
    pub aliases: usize,
    /// `per_week[w]`: addresses first seen in week `w`.
    pub per_week: Vec<u64>,
}

/// Adds `n` distinct addresses to `b`, laid out like the collected
/// hitlist (above), and the alias prefixes of every `ALIAS_EVERY`-th /48.
pub fn served(seed: u64, n: u64, b: &mut SnapshotBuilder) -> Summary {
    let mut rng = Rng::new(hash64(seed, b"perfbench-served"));
    // Distinct /32s, each with the number of its /48s drawn so far.
    let base = rng.next_u64();
    let mut slash32: Vec<(u128, u64, u64)> = (0..n.div_ceil(ADDRS_PER_32))
        .map(|i| {
            let p32 = 0x2000_0000 | (i.wrapping_mul(0x9e37_79b9).wrapping_add(base) & 0x1fff_ffff);
            (u128::from(p32) << 96, 0, rng.next_u64())
        })
        .collect();
    let mut sum = Summary {
        addresses: 0,
        aliases: 0,
        per_week: vec![0; WEEKS as usize],
    };
    let mut iids = Vec::new();
    let mut net = 0u64;
    while sum.addresses < n {
        let pick = rng.below(slash32.len() as u64) as usize;
        let (p32, used, base48) = &mut slash32[pick];
        assert!(*used < 1 << 16, "a /32 ran out of /48s");
        let p48 = *p32 | (scatter16(*used, *base48) << 80);
        *used += 1;
        let base64 = rng.next_u64();
        for j in 0..draw(&mut rng, &NETS64_PER_48) {
            let p64 = p48 | (scatter16(j, base64) << 64);
            iids.clear();
            for _ in 0..draw(&mut rng, &ADDRS_PER_64) {
                if sum.addresses == n {
                    break;
                }
                let id = loop {
                    let id = iid(&mut rng);
                    if !iids.contains(&id) {
                        break id;
                    }
                };
                iids.push(id);
                let week = rng.below(WEEKS);
                b.add_bits(p64 | u128::from(id), week as u32);
                sum.per_week[week as usize] += 1;
                sum.addresses += 1;
            }
        }
        if net.is_multiple_of(ALIAS_EVERY) {
            let week = rng.below(WEEKS) as u32;
            let inner = p48 | (scatter16(0, base64) << 64);
            for (bits, len) in [(p48, 48), (inner, 56), (inner, 64)] {
                b.add_alias(Prefix::from_bits(bits, len), week);
                sum.aliases += 1;
            }
        }
        net += 1;
    }
    sum
}

/// `table[w]` = addresses first seen after week `w`, for every week a
/// request can name, from the addresses first seen in each week.
pub fn new_since_table(per_week: &[u64]) -> Vec<u64> {
    let mut table = vec![0u64; per_week.len() + 2];
    for w in (0..=per_week.len()).rev() {
        table[w] = table[w + 1] + per_week.get(w + 1).copied().unwrap_or(0);
    }
    table
}

/// The resolver ASes of the churn corpus: six /32s in three countries.
const RESOLVER_ASES: [(u128, [u8; 2]); 6] = [
    (0x2a00_0001, *b"DE"),
    (0x2a00_0002, *b"DE"),
    (0x2a00_0003, *b"JP"),
    (0x2a00_0004, *b"JP"),
    (0x2a00_0005, *b"US"),
    (0x2a00_0006, *b"US"),
];

pub fn resolver() -> SharedResolver {
    Arc::new(PrefixAsTable::new(
        RESOLVER_ASES
            .iter()
            .enumerate()
            .map(|(i, &(p32, cc))| {
                let tag = AsTag {
                    index: i as u16 + 1,
                    country: country_code(cc),
                };
                (p32 << 96, 32, tag)
            })
            .collect(),
    ))
}

/// The live corpus of the publish-churn workload, split by partition.
/// Each week a fixed number of addresses expire and as many arrive;
/// half of the arriving EUI-64 devices are ones that left earlier and
/// come back in another /64 (the moves the tracking operators follow).
#[derive(Clone)]
pub struct Churn {
    rng: Rng,
    partitions: u32,
    pub by_partition: Vec<BTreeMap<u128, u32>>,
    live: Vec<u128>,
    gone_nics: Vec<u64>,
}

impl Churn {
    pub fn new(seed: u64, n: usize, partitions: u32) -> Churn {
        let mut c = Churn {
            rng: Rng::new(hash64(seed, b"perfbench-churn")),
            partitions,
            by_partition: vec![BTreeMap::new(); partitions as usize],
            live: Vec::with_capacity(n),
            gone_nics: Vec::new(),
        };
        for _ in 0..n {
            let week = c.rng.below(8) as u32;
            c.arrive(week);
        }
        c
    }

    pub fn len(&self) -> usize {
        self.live.len()
    }

    fn arrive(&mut self, week: u32) {
        loop {
            let rng = &mut self.rng;
            // Seven /32s: the six resolver ASes and one unrouted.
            let p32 = 0x2a00_0001u128 + u128::from(rng.below(7));
            let p64 =
                (p32 << 96) | (u128::from(rng.below(64)) << 80) | (u128::from(rng.below(16)) << 64);
            let iid = match rng.below(4) {
                0 => {
                    let nic = if !self.gone_nics.is_empty() && rng.chance(0.5) {
                        let i = rng.below(self.gone_nics.len() as u64) as usize;
                        self.gone_nics.swap_remove(i)
                    } else {
                        rng.next_u64()
                    };
                    eui64(OUIS[(nic % 4) as usize], nic)
                }
                1 => u128::from(rng.below(256) + 1),
                _ => u128::from(rng.next_u64()),
            };
            let bits = p64 | iid;
            let pid = v6cluster::partition_of(bits, self.partitions) as usize;
            if self.by_partition[pid].insert(bits, week).is_none() {
                self.live.push(bits);
                return;
            }
        }
    }

    fn expire(&mut self) {
        let i = self.rng.below(self.live.len() as u64) as usize;
        let bits = self.live.swap_remove(i);
        let pid = v6cluster::partition_of(bits, self.partitions) as usize;
        self.by_partition[pid].remove(&bits);
        if is_eui64(bits) {
            self.gone_nics.push(bits as u64 & 0xff_ffff);
        }
    }

    /// Advances one week: `churn` expiries then `churn` arrivals.
    /// Returns how many addresses changed.
    pub fn advance(&mut self, week: u32, churn: usize) -> usize {
        for _ in 0..churn {
            self.expire();
        }
        for _ in 0..churn {
            self.arrive(week);
        }
        2 * churn
    }

    pub fn entries(&self, pid: u32) -> Vec<(u128, u32)> {
        self.by_partition[pid as usize]
            .iter()
            .map(|(&b, &w)| (b, w))
            .collect()
    }

    /// `k` live addresses with their first weeks, drawn from the seed.
    pub fn sample_live(&mut self, k: usize) -> Vec<(u128, u32)> {
        (0..k)
            .map(|_| {
                let bits = self.live[self.rng.below(self.live.len() as u64) as usize];
                let pid = v6cluster::partition_of(bits, self.partitions) as usize;
                (bits, self.by_partition[pid][&bits])
            })
            .collect()
    }

    /// Two aliased /48s in every resolver AS, as registered with the
    /// partition they route to.
    pub fn aliases(&self, pid: u32) -> Vec<AliasEntry> {
        RESOLVER_ASES
            .iter()
            .flat_map(|&(p32, _)| [(p32 << 96) | (3 << 80), (p32 << 96) | (41 << 80)])
            .filter(|&bits| v6cluster::partition_of(bits, self.partitions) == pid)
            .map(|bits| AliasEntry {
                bits,
                len: 48,
                week: 0,
            })
            .collect()
    }
}
