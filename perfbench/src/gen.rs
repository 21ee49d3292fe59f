//! Seeded input generation. The same `--seed` gives the same inputs; the
//! program under test receives only the generated columns, never the
//! seed or the send times.

use monet::prelude::*;

/// SplitMix64: small, fast and good enough for workload data.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_DA7A_CE11_0000)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> i64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as i64
    }
}

/// Order-independent row fingerprint for multiset checksums.
pub fn mix(x: i64) -> u64 {
    let mut z = (x as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---- binary filter input (bin_filter, cluster_repl) ----------------------

/// Rows per binary frame: the receptor's batch size.
pub const FRAME_ROWS: usize = 4096;
/// Distinct `v` values per input cycle; row `id` carries `v[id % POOL]`.
const POOL: usize = 64 * FRAME_ROWS;
/// `v` is uniform in `0..V_DOMAIN`; the filter keeps `v < V_CUT` (10%).
const V_DOMAIN: u64 = 100;
pub const V_CUT: i64 = 10;

/// `S(id, v)` rows with unique ascending ids and seeded `v`.
pub struct FilterInput {
    pub schema: Schema,
    v: Vec<i64>,
    /// Rows the filter keeps in each frame of one input cycle.
    kept: Vec<u32>,
    pub frames: usize,
    /// Ids the 10% filter keeps, and their multiset checksum.
    pub expected: u64,
    pub checksum: u64,
}

impl FilterInput {
    pub fn new(seed: u64, frames: usize) -> FilterInput {
        assert!(
            (frames * FRAME_ROWS).is_multiple_of(POOL),
            "round must be whole input cycles"
        );
        let mut rng = Rng::new(seed);
        let v: Vec<i64> = (0..POOL).map(|_| rng.below(V_DOMAIN)).collect();
        let kept = v
            .chunks(FRAME_ROWS)
            .map(|f| f.iter().filter(|&&x| x < V_CUT).count() as u32)
            .collect();
        let (mut expected, mut checksum) = (0u64, 0u64);
        for id in 0..(frames * FRAME_ROWS) as i64 {
            if v[id as usize % POOL] < V_CUT {
                expected += 1;
                checksum = checksum.wrapping_add(mix(id));
            }
        }
        FilterInput {
            schema: Schema::from_pairs(&[("id", ValueType::Int), ("v", ValueType::Int)]),
            v,
            kept,
            frames,
            expected,
            checksum,
        }
    }

    pub fn rows(&self) -> u64 {
        (self.frames * FRAME_ROWS) as u64
    }

    /// The `v` the generator gave row `id`.
    pub fn v_of(&self, id: i64) -> i64 {
        self.v[id as usize % POOL]
    }

    /// Result rows frame `f` yields.
    pub fn kept_in(&self, f: usize) -> u32 {
        self.kept[f % self.kept.len()]
    }

    /// Frame `f`: ids `f·4096 .. (f+1)·4096`.
    pub fn frame(&self, f: usize) -> Relation {
        let lo = f * FRAME_ROWS;
        let at = lo % POOL;
        Relation::from_columns(vec![
            (
                "id".into(),
                Column::from_ints((lo as i64..(lo + FRAME_ROWS) as i64).collect()),
            ),
            (
                "v".into(),
                Column::from_ints(self.v[at..at + FRAME_ROWS].to_vec()),
            ),
        ])
        .expect("two equal-length int columns")
    }
}

// ---- paced text input (text_delta_paced) ---------------------------------

/// Offered load: rows per second, sent `SEND_ROWS` at a time.
const RATE: u64 = 20_000;
const SEND_ROWS: usize = 20;
/// Microseconds between sends.
pub const SEND_INTERVAL_US: u64 = SEND_ROWS as u64 * 1_000_000 / RATE;
/// Join keys are uniform in `0..KEY_DOMAIN`; `T` holds `T_ROWS` distinct
/// keys of them, so 4% of stream rows find a partner.
const KEY_DOMAIN: u64 = 25_000;
const T_ROWS: usize = 1_000;
pub const GROUPS: usize = 64;
const V_MAX: u64 = 1_000;

/// `S(id, k, g, v)` rows on a fixed schedule plus the small build side
/// `T(k, m)`, with everything the oracle needs to check each result row.
pub struct PacedInput {
    pub schema: Schema,
    /// One 20-row relation per send, send `s` due at `s·SEND_INTERVAL_US`.
    pub sends: Vec<Relation>,
    /// `T` rows as `(k, m)`.
    pub table: Vec<(i64, i64)>,
    /// Join partner `m` of each stream row, if its key is in `T`.
    pub partner: Vec<Option<i64>>,
    pub join_pairs: u64,
    /// Per group, the ids of its rows in send order and the running sums
    /// of `v` after each of them.
    pub group_ids: Vec<Vec<i64>>,
    pub group_sums: Vec<Vec<i64>>,
}

impl PacedInput {
    pub fn new(seed: u64, rows: usize) -> PacedInput {
        let mut rng = Rng::new(seed);
        let stride = KEY_DOMAIN as i64 / T_ROWS as i64;
        let table: Vec<(i64, i64)> = (0..T_ROWS as i64)
            .map(|j| (j * stride + rng.below(stride as u64), rng.below(1_000_000)))
            .collect();
        let mut by_key = vec![None; KEY_DOMAIN as usize];
        for &(k, m) in &table {
            by_key[k as usize] = Some(m);
        }
        let mut partner = Vec::with_capacity(rows);
        let mut group_ids = vec![Vec::new(); GROUPS];
        let mut group_sums: Vec<Vec<i64>> = vec![Vec::new(); GROUPS];
        let mut sends = Vec::with_capacity(rows / SEND_ROWS);
        let mut cols: [Vec<i64>; 4] = Default::default();
        for id in 0..rows as i64 {
            let k = rng.below(KEY_DOMAIN);
            let g = rng.below(GROUPS as u64);
            let v = rng.below(V_MAX);
            partner.push(by_key[k as usize]);
            let sum = group_sums[g as usize].last().copied().unwrap_or(0) + v;
            group_ids[g as usize].push(id);
            group_sums[g as usize].push(sum);
            for (c, x) in cols.iter_mut().zip([id, k, g, v]) {
                c.push(x);
            }
            if cols[0].len() == SEND_ROWS || id as usize == rows - 1 {
                let [a, b, c, d] = std::mem::take(&mut cols);
                sends.push(
                    Relation::from_columns(vec![
                        ("id".into(), Column::from_ints(a)),
                        ("k".into(), Column::from_ints(b)),
                        ("g".into(), Column::from_ints(c)),
                        ("v".into(), Column::from_ints(d)),
                    ])
                    .expect("four equal-length int columns"),
                );
            }
        }
        PacedInput {
            schema: Schema::from_pairs(&[
                ("id", ValueType::Int),
                ("k", ValueType::Int),
                ("g", ValueType::Int),
                ("v", ValueType::Int),
            ]),
            join_pairs: partner.iter().filter(|p| p.is_some()).count() as u64,
            sends,
            table,
            partner,
            group_ids,
            group_sums,
        }
    }

    pub fn rows(&self) -> u64 {
        self.partner.len() as u64
    }

    /// When row `id` was due to be sent, in µs from the schedule's start.
    pub fn due_us(id: i64) -> u64 {
        id as u64 / SEND_ROWS as u64 * SEND_INTERVAL_US
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let (a, b) = (FilterInput::new(7, 64), FilterInput::new(7, 64));
        assert_eq!((a.expected, a.checksum), (b.expected, b.checksum));
        assert_ne!(a.checksum, FilterInput::new(8, 64).checksum);
        let (p, q) = (PacedInput::new(7, 1000), PacedInput::new(7, 1000));
        assert_eq!(p.table, q.table);
        assert_eq!(p.group_sums, q.group_sums);
    }

    #[test]
    fn filter_keeps_about_ten_percent() {
        let f = FilterInput::new(1, 64);
        let share = f.expected as f64 / f.rows() as f64;
        assert!((0.09..0.11).contains(&share), "{share}");
        assert_eq!(f.frame(3).len(), FRAME_ROWS);
        let kept: u64 = (0..f.frames).map(|i| f.kept_in(i) as u64).sum();
        assert_eq!(kept, f.expected);
    }

    #[test]
    fn paced_join_matches_about_four_percent() {
        let p = PacedInput::new(1, 100_000);
        let share = p.join_pairs as f64 / p.rows() as f64;
        assert!((0.035..0.045).contains(&share), "{share}");
        assert_eq!(p.sends.len(), 100_000 / SEND_ROWS);
        let total: usize = p.group_ids.iter().map(Vec::len).sum();
        assert_eq!(total, 100_000);
        assert_eq!(PacedInput::due_us(39), SEND_INTERVAL_US);
    }
}
