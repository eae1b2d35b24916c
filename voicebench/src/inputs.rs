//! Seeded inputs: the table, the spoken transcripts, and the Zipf draw.
//!
//! Transcripts come from the paper's voice loop: [`QueryGenerator`] picks
//! a query, [`describe_query`] says it, and a [`SpeechChannel`] over the
//! table's column-name words and dictionary values mishears it at the
//! given word error rate. The true query stays here; the program under
//! test only ever sees the transcript.

use muve_data::{Dataset, QueryGenerator};
use muve_dbms::{query_fingerprint, ColumnType, Table};
use muve_nlq::{describe_query, SpeechChannel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Word error rate of the simulated speech recogniser.
pub const ERROR_RATE: f64 = 0.1;
/// Predicates per generated query (at least one).
const MAX_PREDICATES: usize = 2;

/// One spoken request: what the user meant and what the program hears.
#[derive(Debug, Clone)]
pub struct Utterance {
    /// Canonical fingerprint of the query the simulated user had in mind.
    pub truth_fp: u64,
    /// The noisy transcript handed to the program.
    pub transcript: String,
}

/// Derive an independent stream seed from the workload seed.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    // SplitMix64 finaliser: neighbouring seeds give unrelated streams.
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the benchmark table. The table is a fixed data set, like a
/// benchmark's scale factor; the workload seed draws the spoken requests.
const DATA_SEED: u64 = 7;

/// The benchmark table: Flights at `rows` rows.
pub fn table(rows: usize) -> Table {
    Dataset::Flights.generate(rows, DATA_SEED)
}

/// Column-name words plus every dictionary value: what the recogniser
/// can confuse a spoken word with.
pub fn vocabulary(table: &Table) -> Vec<String> {
    let mut v = Vec::new();
    for (i, def) in table.schema().columns().iter().enumerate() {
        v.extend(def.name.split('_').map(str::to_owned));
        if def.ty == ColumnType::Str {
            if let Some(dict) = table.column(i).dictionary() {
                v.extend(dict.entries().iter().cloned());
            }
        }
    }
    v
}

/// `n` utterances drawn from the seed.
pub fn utterances(table: &Table, n: usize, seed: u64) -> Vec<Utterance> {
    let mut gen = QueryGenerator::new(table, stream_seed(seed, 2));
    let mut channel = SpeechChannel::new(vocabulary(table), ERROR_RATE, stream_seed(seed, 3));
    (0..n)
        .map(|_| {
            let truth = gen.query(MAX_PREDICATES);
            let transcript = channel.transmit(&describe_query(&truth));
            Utterance {
                truth_fp: query_fingerprint(&truth, Some(table)),
                transcript,
            }
        })
        .collect()
}

/// Zipf(s) draws over `n` ranks by inverse CDF: rank r has weight
/// `1 / (r + 1)^s`.
#[derive(Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
    rng: StdRng,
}

impl Zipf {
    /// A sampler over `n ≥ 1` ranks with exponent `s`, seeded.
    pub fn new(n: usize, s: f64, seed: u64) -> Zipf {
        assert!(n > 0, "a Zipf pool needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf {
            cdf,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The next rank.
    pub fn draw(&mut self) -> usize {
        let u: f64 = self.rng.gen::<f64>();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_draws_repeat_per_seed_and_differ_across_seeds() {
        let draws = |seed| {
            let mut z = Zipf::new(2_000, 1.0, seed);
            (0..500).map(|_| z.draw()).collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let mut z = Zipf::new(2_000, 1.0, 3);
        let draws: Vec<usize> = (0..20_000).map(|_| z.draw()).collect();
        assert!(draws.iter().all(|&r| r < 2_000));
        let top = draws.iter().filter(|&&r| r == 0).count();
        let tenth = draws.iter().filter(|&&r| r == 9).count();
        // Rank 0 carries ten times rank 9's weight under s = 1.
        assert!(top > 5 * tenth, "top {top} tenth {tenth}");
    }

    #[test]
    fn utterance_pool_repeats_per_seed() {
        let t = table(2_000);
        let a = utterances(&t, 30, 5);
        let b = utterances(&t, 30, 5);
        let c = utterances(&t, 30, 6);
        let text = |u: &[Utterance]| u.iter().map(|u| u.transcript.clone()).collect::<Vec<_>>();
        assert_eq!(text(&a), text(&b));
        assert_ne!(text(&a), text(&c));
        assert!(a.iter().zip(&b).all(|(x, y)| x.truth_fp == y.truth_fp));
    }
}
