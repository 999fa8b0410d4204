//! Answer checking: parse a response body back into ids and values and
//! score it against the exact reference.

use crate::gen::{pair_rank, Expected};

/// How far one answer is from the exact one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Score {
    /// MET/MER: 1 − F1 of the answered set against the exact set.
    Miss(f64),
    /// MEC: %RMSE of the answered values (paper Eq. 16: errors divided
    /// by the range of the exact values).
    Rmse(f64),
}

fn series_id(label: &str) -> Option<usize> {
    label.strip_prefix('S')?.parse().ok()
}

/// 1 − F1 of two ascending id lists.
fn miss(answered: &[u32], exact: &[u32]) -> f64 {
    if answered.is_empty() && exact.is_empty() {
        return 0.0;
    }
    let (mut i, mut j, mut both) = (0, 0, 0usize);
    while i < answered.len() && j < exact.len() {
        match answered[i].cmp(&exact[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                both += 1;
                i += 1;
                j += 1;
            }
        }
    }
    1.0 - 2.0 * both as f64 / (answered.len() + exact.len()) as f64
}

fn percent_rmse(exact: &[f64], answered: &[f64]) -> f64 {
    let (lo, hi) = exact
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    let range = hi - lo;
    if exact.is_empty() || range <= 0.0 {
        return 0.0;
    }
    let sum: f64 = exact
        .iter()
        .zip(answered)
        .map(|(e, a)| ((e - a) / range).powi(2))
        .sum();
    (sum / exact.len() as f64).sqrt() * 100.0
}

/// Score `body` (the lines after the `OK` header) against `expected`;
/// `None` when the body does not have the shape the statement calls for.
pub fn score(body: &str, expected: &Expected, n: usize) -> Option<Score> {
    let mut lines = body.lines();
    match expected {
        Expected::Pairs(exact) => {
            let count: usize = lines.next()?.strip_suffix(" pairs")?.parse().ok()?;
            let mut ranks = lines
                .map(|l| {
                    let (a, b) = l.split_once('\t')?;
                    let (a, b) = (series_id(a)?, series_id(b)?);
                    (a != b && a.max(b) < n).then(|| pair_rank(n, a.min(b), a.max(b)) as u32)
                })
                .collect::<Option<Vec<u32>>>()?;
            if ranks.len() != count {
                return None;
            }
            ranks.sort_unstable();
            Some(Score::Miss(miss(&ranks, exact)))
        }
        Expected::Series(exact) => {
            let count: usize = lines.next()?.strip_suffix(" series")?.parse().ok()?;
            let mut ids = lines
                .map(|l| series_id(l).map(|v| v as u32))
                .collect::<Option<Vec<u32>>>()?;
            if ids.len() != count {
                return None;
            }
            ids.sort_unstable();
            Some(Score::Miss(miss(&ids, exact)))
        }
        Expected::Values(exact) => {
            // A location MEC prints `label<TAB>value` rows; a pairwise
            // one prints a header row of labels, then a matrix row per
            // series. Either way: every numeric cell, in reading order.
            let values: Vec<f64> = body
                .lines()
                .flat_map(|l| l.split('\t').skip(1))
                .filter_map(|cell| cell.parse().ok())
                .collect();
            (values.len() == exact.len()).then(|| Score::Rmse(percent_rmse(exact, &values)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scores_each_answer_shape() {
        // pairs over n = 4: (0,1) rank 0, (1,3) rank 4
        let exact = Expected::Pairs(vec![0, 4]);
        assert_eq!(
            score("2 pairs\nS0\tS1\nS3\tS1\n", &exact, 4),
            Some(Score::Miss(0.0))
        );
        assert_eq!(
            score("1 pairs\nS0\tS1\n", &exact, 4),
            Some(Score::Miss(1.0 - 2.0 / 3.0))
        );
        assert_eq!(score("2 pairs\nS0\tS1\n", &exact, 4), None);
        assert_eq!(
            score("1 series\nS2\n", &Expected::Series(vec![2]), 4),
            Some(Score::Miss(0.0))
        );
        let matrix = " \tS0\tS1\nS0\t1.000000\t0.500000\nS1\t0.500000\t1.000000\n";
        assert_eq!(
            score(matrix, &Expected::Values(vec![1.0, 0.5, 0.5, 1.0]), 4),
            Some(Score::Rmse(0.0))
        );
        match score(
            "S0\t2.000000\nS1\t4.000000\n",
            &Expected::Values(vec![2.0, 3.0]),
            4,
        ) {
            Some(Score::Rmse(r)) => assert!((r - 100.0 * (0.5f64).sqrt()).abs() < 1e-9),
            other => panic!("{other:?}"),
        }
    }
}
