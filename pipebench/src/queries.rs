//! Query streams and latency statistics.

use envmon_serve::{Published, Query, QueryError, Response};
use simkit::rng::mix64;
use simkit::{DetRng, SimTime};

/// Index of `q`'s kind, the order per-kind latencies use: Range,
/// DomainAggregate, TopK, Freshness.
pub fn kind(q: &Query) -> usize {
    match q {
        Query::Range { .. } => 0,
        Query::DomainAggregate { .. } => 1,
        Query::TopK { .. } => 2,
        Query::Freshness => 3,
    }
}

/// The dashboard mix `ClientWorkload::clean` sends, as kinds in [`kind`]
/// order: 4/8 `Range`, 2/8 `DomainAggregate`, 1/8 `TopK`, 1/8
/// `Freshness`.
const CLEAN: [usize; 8] = [0, 0, 0, 0, 1, 1, 2, 3];

/// A query stream of the dashboard mix, windows uniform over the published
/// history. Each block of eight queries holds the mix's exact counts in a
/// seeded order, so two seeds differ in windows, series and order but not
/// in how many queries of each kind they send. Draws the same number of
/// values whatever the view holds, so a stream replays exactly.
pub struct Clean {
    rng: DetRng,
    block: [usize; 8],
    next: usize,
}

impl Clean {
    /// A stream drawing from `rng`.
    pub fn new(rng: DetRng) -> Clean {
        Clean {
            rng,
            block: CLEAN,
            next: CLEAN.len(),
        }
    }

    /// The next query, against `view`.
    pub fn draw(&mut self, view: &Published) -> Query {
        if self.next == self.block.len() {
            self.block = CLEAN;
            self.rng.shuffle(&mut self.block);
            self.next = 0;
        }
        let kind = self.block[self.next];
        self.next += 1;
        let rng = &mut self.rng;
        let horizon = view.at.as_secs_f64().max(1.0);
        let a = rng.uniform(0.0, horizon);
        let b = rng.uniform(0.0, horizon);
        let from = SimTime::from_secs_f64(a.min(b));
        let to = SimTime::from_secs_f64(a.max(b));
        let pick = rng.next_u64();
        let k = 1 + rng.below(8) as usize;
        let n = view.store.len() as u64;
        if n == 0 {
            return Query::Freshness;
        }
        let meta = &view.meta[(pick % n) as usize];
        let tiers = view
            .store
            .ids()
            .next()
            .map_or(1, |id| view.store.get(id).tier_count().max(1));
        let tier = (pick / n) as usize % tiers;
        match kind {
            0 => Query::Range {
                series: format!("{}/{}/{}", meta.agent, meta.device, meta.domain),
                from,
                to,
            },
            1 => Query::DomainAggregate {
                domain: meta.domain.clone(),
                tier,
                from,
                to,
            },
            2 => Query::TopK { k, tier, from, to },
            _ => Query::Freshness,
        }
    }
}

/// Fold one answer's digest into `chain` (`u64::MAX` stands for an error).
pub fn fold(chain: u64, answer: &Result<Response, QueryError>) -> u64 {
    mix64(chain, answer.as_ref().map_or(u64::MAX, Response::digest))
}

/// Nearest-rank percentile `p` (0–100) of `samples`, in the samples'
/// unit; 0 when there are none. Sorts in place.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
