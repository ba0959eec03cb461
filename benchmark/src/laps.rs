//! Lap times: what `wall_s` is made of.
//!
//! A timed run is cut into **laps** of a few milliseconds — one or a few
//! iterations, a load-balance check, a remap, a checkpoint — and every lap
//! has a **kind**: laps of one kind do the same work (the same sweep over
//! the same block, the same collective). A repetition's runs all do exactly
//! the same work, so across the runs of an invocation each kind collects
//! thousands of samples of one quantity.
//!
//! On a shared host that quantity is the program's own time plus whatever
//! the neighbours cost it: on the machine this was written on a busy sibling
//! hardware thread slows a memory-bound sweep by up to 2×, in bursts of
//! milliseconds whose share of the time drifts over minutes. The median of
//! whole-run times follows that share (ten invocations spread by 3–16 % in
//! the host's better hours, by 23–37 % in its worse ones); a lap is short
//! enough that in all but the worst spells some laps of every kind run
//! undisturbed in every invocation, and their time repeats to 1–7 % (to
//! 13–21 % in those hours; `README.md` has the series).
//!
//! So each kind keeps its [`BEST`] smallest samples, and a run is priced at
//! *laps of the kind per run × the kind's [`BEST`]-th smallest sample*,
//! summed over kinds ([`projected_s`]): the seconds the run takes when the
//! host leaves it alone. Not the very smallest sample — one freak reading
//! must not set the result — but still far inside the undisturbed tail.

use crate::json::Json;

/// How many of a kind's smallest samples are kept; the last of them prices
/// the kind.
pub const BEST: usize = 3;

/// One kind of lap.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LapKind {
    /// Laps of this kind in one run.
    pub per_run: u64,
    /// The smallest seconds a lap of this kind took, ascending, at most
    /// [`BEST`] of them.
    pub best_s: Vec<f64>,
}

impl LapKind {
    /// Files one sample.
    #[inline]
    pub fn record(&mut self, seconds: f64) {
        if self.best_s.len() == BEST && seconds >= self.best_s[BEST - 1] {
            return;
        }
        let at = self.best_s.partition_point(|b| *b <= seconds);
        self.best_s.insert(at, seconds);
        self.best_s.truncate(BEST);
    }

    /// The kind's price: its [`BEST`]-th smallest sample (the largest kept
    /// one while there are fewer).
    pub fn price_s(&self) -> Option<f64> {
        self.best_s.last().copied()
    }
}

/// The ranks' views of one repetition folded into one: a lap ends when the
/// slowest rank gets there, so sample for sample the larger time stands.
/// (A rank that waits less because it fell behind and is catching up shows
/// laps shorter than the work takes; the rank it was waiting for does not.)
/// `None` if the ranks disagree about the laps a run takes.
pub fn slowest_rank(ranks: &[&[LapKind]]) -> Option<Vec<LapKind>> {
    let first = ranks.first()?;
    let mut out = first.to_vec();
    for other in &ranks[1..] {
        if other.len() != out.len() {
            return None;
        }
        for (mine, theirs) in out.iter_mut().zip(other.iter()) {
            if mine.per_run != theirs.per_run {
                return None;
            }
            mine.best_s.truncate(theirs.best_s.len());
            for (a, b) in mine.best_s.iter_mut().zip(&theirs.best_s) {
                *a = a.max(*b);
            }
        }
    }
    Some(out)
}

/// Several repetitions' samples pooled: per kind, the [`BEST`] smallest of
/// all of them. `None` if the repetitions disagree about the laps.
pub fn pooled(reps: &[Vec<LapKind>]) -> Option<Vec<LapKind>> {
    let mut out = reps.first()?.clone();
    for other in &reps[1..] {
        if other.len() != out.len() {
            return None;
        }
        for (mine, theirs) in out.iter_mut().zip(other) {
            if mine.per_run != theirs.per_run {
                return None;
            }
            for s in &theirs.best_s {
                mine.record(*s);
            }
        }
    }
    Some(out)
}

/// Seconds of one run with every lap at its kind's price. `None` if a kind
/// that occurs in a run has no sample.
pub fn projected_s(kinds: &[LapKind]) -> Option<f64> {
    kinds
        .iter()
        .filter(|k| k.per_run > 0)
        .map(|k| Some(k.per_run as f64 * k.price_s()?))
        .sum()
}

/// `[[per_run, best…], …]`, the form a repetition reports its laps in.
pub fn to_json(kinds: &[LapKind]) -> Json {
    Json::Arr(
        kinds
            .iter()
            .map(|k| {
                let mut row = vec![Json::from(k.per_run)];
                row.extend(k.best_s.iter().map(|s| Json::Num(*s)));
                Json::Arr(row)
            })
            .collect(),
    )
}

/// Reads [`to_json`]'s form back.
pub fn from_json(doc: &Json) -> Option<Vec<LapKind>> {
    let Json::Arr(rows) = doc else { return None };
    rows.iter()
        .map(|row| {
            let Json::Arr(cells) = row else { return None };
            let mut numbers = cells.iter().map(|c| match c {
                Json::Num(v) => Some(*v),
                _ => None,
            });
            let per_run = numbers.next()?? as u64;
            let best_s = numbers.collect::<Option<Vec<f64>>>()?;
            Some(LapKind { per_run, best_s })
        })
        .collect()
}

/// Flat `[per_run, n, best…]…` words for the TCP result codec.
pub fn encode(kinds: &[LapKind]) -> Vec<f64> {
    let mut out = Vec::with_capacity(kinds.len() * (2 + BEST));
    for k in kinds {
        out.push(k.per_run as f64);
        out.push(k.best_s.len() as f64);
        out.extend(&k.best_s);
    }
    out
}

/// Reads [`encode`]'s words back.
///
/// # Panics
/// Panics on a truncated list (the peer is this same binary).
pub fn decode(words: &[f64]) -> Vec<LapKind> {
    let mut out = Vec::new();
    let mut rest = words;
    while let [per_run, n, tail @ ..] = rest {
        let (best, tail) = tail.split_at(*n as usize);
        out.push(LapKind {
            per_run: *per_run as u64,
            best_s: best.to_vec(),
        });
        rest = tail;
    }
    assert!(rest.is_empty(), "truncated lap list");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind(per_run: u64, samples: &[f64]) -> LapKind {
        let mut k = LapKind {
            per_run,
            best_s: Vec::new(),
        };
        for s in samples {
            k.record(*s);
        }
        k
    }

    #[test]
    fn a_kind_keeps_its_smallest_samples_in_order() {
        let k = kind(10, &[5.0, 3.0, 9.0, 1.0, 4.0, 1.0]);
        assert_eq!(k.best_s, vec![1.0, 1.0, 3.0]);
        assert_eq!(k.price_s(), Some(3.0));
        // Fewer samples than BEST: the largest kept one prices the kind.
        assert_eq!(kind(1, &[7.0, 2.0]).price_s(), Some(7.0));
        assert_eq!(kind(1, &[]).price_s(), None);
    }

    #[test]
    fn one_freak_sample_does_not_set_the_price() {
        let mut samples = vec![2.0; 100];
        samples[40] = 0.01;
        assert_eq!(kind(1, &samples).price_s(), Some(2.0));
    }

    #[test]
    fn the_slowest_rank_stands_sample_for_sample() {
        let a = [kind(4, &[1.0, 2.0, 3.0]), kind(1, &[9.0])];
        let b = [kind(4, &[2.0, 2.5, 2.75]), kind(1, &[8.0])];
        let both = slowest_rank(&[&a, &b]).unwrap();
        assert_eq!(both[0].best_s, vec![2.0, 2.5, 3.0]);
        assert_eq!(both[1].best_s, vec![9.0]);
        // Ranks that took different laps cannot be folded.
        assert_eq!(slowest_rank(&[&a, &b[..1]]), None);
        assert_eq!(
            slowest_rank(&[&a, &[kind(5, &[1.0]), kind(1, &[1.0])]]),
            None
        );
        assert_eq!(slowest_rank(&[]), None);
    }

    #[test]
    fn pooling_keeps_the_best_of_every_repetition() {
        let r1 = vec![kind(2, &[3.0, 4.0, 5.0])];
        let r2 = vec![kind(2, &[1.0, 4.5, 6.0])];
        let all = pooled(&[r1.clone(), r2]).unwrap();
        assert_eq!(all[0].best_s, vec![1.0, 3.0, 4.0]);
        assert_eq!(projected_s(&all), Some(8.0));
        assert_eq!(pooled(&[r1, vec![]]), None);
        assert_eq!(pooled(&[]), None);
    }

    #[test]
    fn projection_sums_kinds_and_skips_absent_ones() {
        let kinds = [
            kind(100, &[0.004, 0.005, 0.006]),
            kind(0, &[]),
            kind(9, &[0.0001]),
        ];
        let want = 100.0 * 0.006 + 9.0 * 0.0001;
        assert!((projected_s(&kinds).unwrap() - want).abs() < 1e-15);
        // A kind that occurs but was never sampled cannot be priced.
        assert_eq!(projected_s(&[kind(3, &[])]), None);
    }

    #[test]
    fn both_codecs_round_trip() {
        let kinds = vec![kind(100, &[0.25, 0.5, 0.75]), kind(0, &[]), kind(1, &[2.0])];
        assert_eq!(decode(&encode(&kinds)), kinds);
        let text = to_json(&kinds).render();
        assert_eq!(from_json(&Json::parse(&text).unwrap()), Some(kinds));
        assert_eq!(from_json(&Json::Num(1.0)), None);
    }
}
